"""Static analysis of the repo's own invariants — ``repro lint``.

Six PRs of contracts (bit-identical serial↔pooled runs, kernel ==
reference exactness, one AREA_TOL, write-only observability, byte-stable
CLI output, picklable ``parallel_map`` payloads) were enforced only by
example-based tests.  This package enforces them *structurally*: an AST
visitor core (:mod:`~repro.analysis.core`), a registry of rules with
stable ``REPRO``-style codes (:mod:`~repro.analysis.registry` /
:mod:`~repro.analysis.rules`), inline
``# repro-lint: disable=CODE  # reason`` suppressions and a driver with a
stable JSON report (:mod:`~repro.analysis.runner`) behind the
``repro lint`` CLI verb.

Shipped rules (catalogue with provenance in ``analysis/README.md``):

======  =====================================================
DET001  no unseeded randomness under ``src/repro``
DET002  no wall-clock reads in algorithm modules
OBS001  observability is write-only for algorithms
CLI001  no bare ``print()`` outside the CLI reporter plumbing
TOL001  no literal shadowing ``AREA_TOL``/``AREA_UNIT``
PAR001  ``parallel_map`` callables must be module-level
EXC001  no bare/silent ``except``
KER001  C kernel constants match their Python mirrors
======  =====================================================

Typical use::

    repro lint                           # src/ tests/ benchmarks/ if present
    repro lint src/repro --json
    repro lint --select DET001,DET002 src/
    repro lint --ignore TOL001 src/

Exit status: 0 clean, 1 findings, 2 usage/input errors.  The repo's own
tree lints clean — pinned by the meta-test in ``tests/test_analysis.py``
and the ``static-analysis`` CI job.
"""

from __future__ import annotations

from .core import Finding, LintError, ModuleContext, Rule
from .registry import (
    RuleSelectionError,
    all_rules,
    resolve_codes,
    rule_codes,
)
from .runner import LintReport, collect_files, lint_sources, run_lint
from . import rules  # noqa: F401  - importing registers the shipped rules

__all__ = [
    "Finding",
    "LintError",
    "LintReport",
    "ModuleContext",
    "Rule",
    "RuleSelectionError",
    "all_rules",
    "collect_files",
    "lint_sources",
    "resolve_codes",
    "rule_codes",
    "run_lint",
]
