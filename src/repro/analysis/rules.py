"""The shipped ``repro lint`` rules.

Each rule guards a contract a previous PR pinned with example-based
tests; the linter makes the contract *structural* — new code cannot
quietly drift out of it.  The catalogue (code -> contract -> origin PR)
is mirrored in ``src/repro/analysis/README.md``; rule codes are stable
forever (suppressions reference them).
"""

from __future__ import annotations

import ast
import posixpath
import re
from typing import Iterable, List, Optional, Sequence

from .core import Finding, ModuleContext, Rule
from .registry import register

__all__ = [
    "UnseededRandomnessRule",
    "WallClockRule",
    "ObservabilityWriteOnlyRule",
    "BarePrintRule",
    "ToleranceLiteralRule",
    "PicklableParallelCallableRule",
    "BoundedRetryRule",
    "SilentExceptRule",
    "CKernelMirrorRule",
]


def _in_package(ctx: ModuleContext) -> bool:
    return ctx.pkg_rel is not None


@register
class UnseededRandomnessRule(Rule):
    code = "DET001"
    title = "no unseeded randomness"
    contract = (
        "Every result depends only on explicit seeds: drivers shard "
        "numpy SeedSequence children before dispatch and workers never "
        "draw from shared state (PR 2's serial==pooled bit-identity; "
        "contract in parallel/README.md).  The stdlib random global API, "
        "numpy's legacy np.random.* globals and a seedless "
        "default_rng() all read hidden global or OS entropy."
    )
    node_types = (ast.Call,)

    #: numpy.random attributes that are constructors/types, not the
    #: hidden-global-state legacy API
    _NP_ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
    })

    def applies(self, ctx: ModuleContext) -> bool:
        return _in_package(ctx)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        name = ctx.resolve_call(node.func)
        if name is None:
            return
        if name.startswith("random."):
            tail = name.split(".", 1)[1]
            if tail not in ("Random",):  # random.Random(seed) is explicit
                yield self.finding(
                    ctx, node,
                    f"call to the stdlib global-state RNG `{name}`; "
                    "derive a numpy Generator from a seed instead",
                )
            return
        if name.startswith("numpy.random."):
            tail = name.split(".", 2)[2]
            if "." not in tail and tail not in self._NP_ALLOWED:
                yield self.finding(
                    ctx, node,
                    f"legacy global-state numpy RNG `np.random.{tail}`; "
                    "use np.random.default_rng(seed)",
                )
                return
        if name in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    f"`{name}()` without a seed draws OS entropy; "
                    "pass a seed or SeedSequence",
                )


@register
class WallClockRule(Rule):
    code = "DET002"
    title = "no wall-clock reads in algorithm modules"
    contract = (
        "Simulated results depend only on seeds and model inputs "
        "(PR 1's zero-noise == CostModel.simulate() pin, PR 2's "
        "serial == pooled CSVs).  Wall-clock reads belong to the "
        "observability layer (repro.obs), CLI timing paths and the "
        "benchmark harness — never inside an algorithm."
    )
    node_types = (ast.Call,)

    _WALL_CLOCK = frozenset({
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns", "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def applies(self, ctx: ModuleContext) -> bool:
        if not _in_package(ctx):
            return False
        # the sanctioned timing paths
        return not ctx.pkg_rel.startswith("obs/") and ctx.pkg_rel != "cli.py"

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        name = ctx.resolve_call(node.func)
        if name in self._WALL_CLOCK:
            yield self.finding(
                ctx, node,
                f"wall-clock read `{name}` in an algorithm module; "
                "results must depend only on seeds (move timing to "
                "repro.obs or justify with a disable pragma)",
            )


@register
class ObservabilityWriteOnlyRule(Rule):
    code = "OBS001"
    title = "observability is write-only for algorithms"
    contract = (
        "Algorithm modules may create/update spans, counters and "
        "histograms but never read tracer or registry state back into "
        "control flow — the PR 6 hard contract that enabling "
        "observability changes no numeric output."
    )
    node_types = (ast.Call, ast.Attribute)

    _READS = frozenset({"snapshot", "phase_totals"})

    def applies(self, ctx: ModuleContext) -> bool:
        if not _in_package(ctx):
            return False
        # obs/ is the instrument layer itself; cli.py renders reports
        return not ctx.pkg_rel.startswith("obs/") and ctx.pkg_rel != "cli.py"

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._READS:
                yield self.finding(
                    ctx, node,
                    f"reads observability state via `.{func.attr}()`; "
                    "algorithms record into instruments, only the obs/CLI "
                    "layer reads them",
                )
        elif isinstance(node, ast.Attribute):
            if node.attr == "spans" and isinstance(node.ctx, ast.Load):
                yield self.finding(
                    ctx, node,
                    "reads collected spans (`.spans`); span data is for "
                    "the obs/CLI layer, not algorithm control flow",
                )


@register
class BarePrintRule(Rule):
    code = "CLI001"
    title = "no bare print() outside the CLI reporter plumbing"
    contract = (
        "PR 6 routed all 61 user-facing lines through the logging-backed "
        "reporter (repro.obs.report) so --verbose/--quiet, stream "
        "redirection and byte-stable default output hold everywhere; a "
        "bare print() bypasses all three."
    )
    node_types = (ast.Call,)

    def applies(self, ctx: ModuleContext) -> bool:
        return _in_package(ctx) and ctx.pkg_rel != "cli.py"

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield self.finding(
                ctx, node,
                "bare print(); route through "
                "repro.obs.get_reporter() (.out/.detail/.warn/.error)",
            )


@register
class ToleranceLiteralRule(Rule):
    code = "TOL001"
    title = "no literal shadowing AREA_TOL / AREA_UNIT"
    contract = (
        "PR 5 single-sourced area feasibility: one AREA_TOL and one "
        "AREA_UNIT (the grid every area decision counts on) in "
        "evaluation/costmodel.py govern the static check, the vectorized "
        "mask, the delta evaluator, NSGA-II's repair, the list schedulers "
        "and the runtime ledger.  A re-typed literal can silently drift "
        "when a constant is tuned."
    )
    node_types = (ast.Constant,)

    def __init__(self) -> None:
        # imported lazily: the values themselves stay single-sourced
        from ..evaluation.costmodel import AREA_TOL, AREA_UNIT

        names: dict = {}
        for name, value in (("AREA_TOL", AREA_TOL), ("AREA_UNIT", AREA_UNIT)):
            names.setdefault(value, []).append(name)
        self._guarded = {value: " / ".join(n) for value, n in names.items()}

    def applies(self, ctx: ModuleContext) -> bool:
        return _in_package(ctx) and ctx.pkg_rel != "evaluation/costmodel.py"

    def check(self, node: ast.Constant, ctx: ModuleContext) -> Iterable[Finding]:
        value = node.value
        if type(value) is float and value in self._guarded:
            name = self._guarded[value]
            yield self.finding(
                ctx, node,
                f"float literal {value!r} shadows {name}; import it from "
                "repro.evaluation.costmodel (or justify an unrelated "
                "constant with a disable pragma)",
            )


@register
class PicklableParallelCallableRule(Rule):
    code = "PAR001"
    title = "parallel_map callables must be module-level"
    contract = (
        "The repro.parallel contract (parallel/README.md, PR 2): worker "
        "functions cross process boundaries by pickle, which serializes "
        "functions *by reference* — lambdas, closures and nested defs "
        "fail at dispatch time only when workers > 1, the worst kind of "
        "latent breakage."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterable[Finding]:
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name != "parallel_map" or not node.args:
            return
        fn = node.args[0]
        if isinstance(fn, ast.Lambda):
            yield self.finding(
                ctx, fn,
                "lambda passed to parallel_map is not picklable by "
                "reference; use a module-level function",
            )
        elif isinstance(fn, ast.Name) and fn.id in ctx.nested_defs:
            yield self.finding(
                ctx, fn,
                f"`{fn.id}` is defined inside another function; "
                "parallel_map workers must be module-level (picklable "
                "by reference)",
            )


@register
class BoundedRetryRule(Rule):
    code = "PAR002"
    title = "retry loops bounded; no sleeping in algorithm modules"
    contract = (
        "Fault tolerance is owned by the supervised pool (PR 8, "
        "repro.parallel.supervisor): retries are bounded by the "
        "pool's attempt budget and backoff waits live only there.  A "
        "`while True` retry loop or an ad-hoc time.sleep in an algorithm "
        "module can stall a sweep forever and hides failure handling "
        "from the supervisor's counters; the supervisor/chaos modules "
        "carry justified inline pragmas."
    )
    node_types = (ast.Call, ast.While)

    def applies(self, ctx: ModuleContext) -> bool:
        if not _in_package(ctx):
            return False
        # obs/ and the CLI are control-plane code, same scope as DET002
        return not ctx.pkg_rel.startswith("obs/") and ctx.pkg_rel != "cli.py"

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            if ctx.resolve_call(node.func) == "time.sleep":
                yield self.finding(
                    ctx, node,
                    "time.sleep in an algorithm module; waiting belongs "
                    "to the parallel supervisor's bounded backoff (or "
                    "justify with a disable pragma)",
                )
            return
        # `while True` whose only way past a failure is except-and-continue
        # (and no break anywhere): an unbounded retry loop
        if not (isinstance(node.test, ast.Constant) and node.test.value is True):
            return
        if any(isinstance(sub, ast.Break) for sub in ast.walk(node)):
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.ExceptHandler) and any(
                isinstance(s, ast.Continue) for s in ast.walk(sub)
            ):
                yield self.finding(
                    ctx, node,
                    "unbounded `while True` retry loop (an except handler "
                    "continues and nothing breaks); bound it with a "
                    "max-attempts counter (see SupervisedPool)",
                )
                return


@register
class SilentExceptRule(Rule):
    code = "EXC001"
    title = "no bare/silent except"
    contract = (
        "Failures are recorded, never swallowed: PR 2 replaced silent "
        "None coercion with explicit dead-fallback accounting "
        "(RuntimeTrace.n_fallback_dead) precisely because a swallowing "
        "except hid a correctness bug.  Catch narrowly and record, "
        "re-raise, or justify the fallback with a disable pragma."
    )
    node_types = (ast.ExceptHandler,)

    def applies(self, ctx: ModuleContext) -> bool:
        return _in_package(ctx)

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring / ellipsis placeholder
            return False
        return True

    def check(
        self, node: ast.ExceptHandler, ctx: ModuleContext
    ) -> Iterable[Finding]:
        if node.type is None:
            yield self.finding(
                ctx, node,
                "bare `except:` also catches KeyboardInterrupt/SystemExit; "
                "name the exceptions",
            )
        elif self._is_silent(node.body):
            yield self.finding(
                ctx, node,
                "except block swallows the exception without recording "
                "anything; log, count, re-raise, or justify with a "
                "disable pragma",
            )


def _kernel_c_path(contexts: Sequence[ModuleContext]) -> Optional[str]:
    """``kernel.c`` beside the linted ``evaluation/_ckernel.py`` (the
    KER rules' findings name it), or None when that module is not part
    of the lint run."""
    target = next(
        (c for c in contexts if c.pkg_rel == "evaluation/_ckernel.py"), None
    )
    return None if target is None else posixpath.join(
        posixpath.dirname(target.path), "kernel.c")


@register
class CKernelMirrorRule(Rule):
    code = "KER001"
    title = "C kernel constants match their Python mirrors"
    contract = (
        "The compiled kernel must agree with the Python side on every "
        "shared constant: the in-kernel dedup's FNV-1a parameters and "
        "table-sizing factor (PR 4) mirror "
        "repro.evaluation.kernel.DEDUP_* and the infeasible sentinel is "
        "INFINITY == costmodel.INFEASIBLE.  An edit to one side without "
        "the other silently breaks exact-value sharing.  The ctypes "
        "entry table must list every exported C function once, with "
        "its prototype."
    )

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterable[Finding]:
        path = _kernel_c_path(contexts)
        if path is None:
            return  # the kernel module is not part of this lint run
        from ..evaluation._ckernel import source_consistency_problems

        for line, message in source_consistency_problems():
            yield self.finding(path, None, message, line=line)


@register
class CKernelTopologyAgnosticRule(Rule):
    code = "KER002"
    title = "C kernel stays topology-agnostic (routing is table-build-time)"
    contract = (
        "Interconnect topology is priced entirely at table-build time: "
        "the platform's effective (routed) matrices feed the CSR "
        "pred_trans tables, so the C inner loop needs no notion of "
        "links, routes or hops — that is the zero-inner-loop-cost "
        "design of the link-graph layer (repro.platform.links).  A "
        "routing identifier appearing in the C source (kernel.c) means "
        "someone is moving routing into the hot loop; that needs new "
        "mirrored constants and a conscious KER001 extension, not a "
        "silent drive-by."
    )

    # underscore counts as a boundary so snake_case identifiers like
    # ``hop_count`` or ``n_links`` trip the rule, not just bare words
    _FORBIDDEN = re.compile(
        r"(?<![A-Za-z0-9])(links?|routes?|routing|topolog[a-z]*|hops?)"
        r"(?![A-Za-z0-9])",
        re.IGNORECASE,
    )

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterable[Finding]:
        path = _kernel_c_path(contexts)
        if path is None:
            return  # the kernel module is not part of this lint run
        from ..evaluation._ckernel import kernel_source

        for lineno, line in enumerate(kernel_source().splitlines(), 1):
            hit = self._FORBIDDEN.search(line)
            if hit:
                yield self.finding(
                    path, None,
                    f"C kernel source mentions {hit.group(0)!r}: routing "
                    "belongs in the table build (platform effective "
                    "matrices), not the inner loop",
                    line=lineno,
                )
