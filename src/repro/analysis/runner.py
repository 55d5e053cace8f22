"""Lint driver: file discovery, the shared AST walk, and the report.

One :func:`run_lint` call is one lint run: discover ``.py`` files under
the given paths (sorted, deterministic), build a
:class:`~repro.analysis.core.ModuleContext` per file, drive every active
rule over a **single** ``ast.walk`` per module, then run project-level
rules once across all contexts.  Suppressions are applied per finding,
and the result is a :class:`LintReport` with a stable JSON schema (version field; bump on
any shape change)::

    {
      "version": 1,
      "rules": ["CLI001", "DET001", ...],   # active after --select/--ignore
      "n_files": 12,
      "counts": {"TOL001": 2},              # findings per code (only nonzero)
      "n_suppressed": 3,                    # inline-pragma suppressions hit
      "findings": [{"code", "path", "line", "col", "message"}, ...]
    }
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import Finding, LintError, ModuleContext, Rule
from .registry import all_rules, resolve_codes

__all__ = ["LintReport", "collect_files", "lint_sources", "run_lint"]

JSON_SCHEMA_VERSION = 1


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    n_files: int
    rules: List[str]           # active rule codes
    n_suppressed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "version": JSON_SCHEMA_VERSION,
            "rules": list(self.rules),
            "n_files": self.n_files,
            "counts": self.counts(),
            "n_suppressed": self.n_suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }


def collect_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths``, sorted and deduplicated.

    Hidden directories and ``__pycache__`` are skipped.  A path that is
    neither a ``.py`` file nor a directory raises :class:`LintError` —
    a typo'd path must not silently lint nothing.
    """
    seen: Set[str] = set()
    out: List[str] = []

    def add(p: str) -> None:
        norm = os.path.normpath(p).replace(os.sep, "/")
        if norm not in seen:
            seen.add(norm)
            out.append(norm)

    for path in paths:
        if os.path.isfile(path):
            if not path.endswith(".py"):
                raise LintError(f"{path}: not a Python file")
            add(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        add(os.path.join(dirpath, name))
        else:
            raise LintError(f"{path}: no such file or directory")
    return sorted(out)


def _lint_module(
    ctx: ModuleContext, rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """All rule findings for one module; returns (kept, n_suppressed)."""
    import ast

    active = [r for r in rules if r.applies(ctx)]
    raw: List[Finding] = []
    for rule in active:
        raw.extend(rule.check_module(ctx))
    per_node = [r for r in active if r.node_types]
    if per_node:
        for node in ast.walk(ctx.tree):
            for rule in per_node:
                if isinstance(node, rule.node_types):
                    raw.extend(rule.check(node, ctx))
    kept, suppressed = [], 0
    for f in raw:
        if ctx.suppressed(f.code, f.line):
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


def lint_sources(
    sources: Iterable[Tuple[str, str]],
    rules: Sequence[Rule],
) -> LintReport:
    """Lint in-memory ``(path, source)`` pairs (the test-fixture entry)."""
    contexts: List[ModuleContext] = []
    errors: List[str] = []
    findings: List[Finding] = []
    n_suppressed = 0
    for path, source in sources:
        try:
            ctx = ModuleContext(path, source)
        except LintError as exc:
            errors.append(str(exc))
            continue
        contexts.append(ctx)
        kept, suppressed = _lint_module(ctx, rules)
        findings.extend(kept)
        n_suppressed += suppressed
    for rule in rules:
        for f in rule.check_project(contexts):
            ctx = next((c for c in contexts if c.path == f.path), None)
            if ctx is not None and ctx.suppressed(f.code, f.line):
                n_suppressed += 1
            else:
                findings.append(f)
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        findings=findings,
        n_files=len(contexts),
        rules=sorted(r.code for r in rules),
        n_suppressed=n_suppressed,
        errors=errors,
    )


def run_lint(
    paths: Sequence[str],
    *,
    select: Optional[str] = None,
    ignore: Optional[str] = None,
) -> LintReport:
    """Lint ``paths`` with the active rule set; see the module docstring.

    Raises :class:`~repro.analysis.core.LintError` for unusable inputs
    (a missing or unreadable path) and
    :class:`~repro.analysis.registry.RuleSelectionError` for unknown
    codes — the CLI maps both to exit status 2.
    """
    rules = all_rules(resolve_codes(select), resolve_codes(ignore))
    files = collect_files(paths)

    def read_all():
        for path in files:
            try:
                with open(path, encoding="utf-8") as fh:
                    yield path, fh.read()
            except OSError as exc:
                raise LintError(f"cannot read {path}: {exc}") from None

    return lint_sources(read_all(), rules)
