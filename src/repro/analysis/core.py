"""AST visitor core of ``repro lint``: contexts, findings, suppressions.

One :class:`ModuleContext` is built per linted file.  It parses the
source once, precomputes everything every rule wants to ask — import
aliases resolved to dotted module names, the package-relative path (so
rules can scope themselves to ``src/repro`` or carve out ``obs/``),
nested-function names (the pickling rules), and the inline suppression
map — and then a single ``ast.walk`` drives every active rule's
per-node check.  Rules never re-walk the tree.

Suppressions are inline comments on the finding's line::

    eps = 1e-9 * scale  # repro-lint: disable=TOL001  # tie-break, not an area tol

Multiple codes separate with commas (``disable=TOL001,DET002``).  A
justification after the pragma is strongly encouraged — the point of a
suppression is a *reviewed* exception, not a silenced one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "dotted_name",
]

#: inline pragma: ``# repro-lint: disable=CODE[,CODE...]``
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
)


class LintError(Exception):
    """A file could not be linted (unreadable, syntax error)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str          # as given on the command line, normalized to posix
    line: int          # 1-based
    col: int           # 0-based, matching ast
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ModuleContext:
    """Everything the rules want to know about one parsed module."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: syntax error: {exc}") from None
        self.pkg_rel = self._package_relative(self.path)
        self.suppressions = self._scan_suppressions(source)
        self.module_aliases = self._scan_imports(self.tree)
        self.nested_defs = self._scan_nested_defs(self.tree)

    # ------------------------------------------------------------------
    @staticmethod
    def _package_relative(path: str) -> Optional[str]:
        """Path inside the ``repro`` package, or None for tests/benchmarks.

        Heuristic: the segment after the *last* directory literally named
        ``repro`` (covers ``src/repro/...`` checkouts and installed
        ``site-packages/repro/...`` trees alike).
        """
        parts = path.split("/")
        for i in range(len(parts) - 2, -1, -1):
            if parts[i] == "repro":
                return "/".join(parts[i + 1:])
        return None

    @staticmethod
    def _scan_suppressions(source: str) -> Dict[int, Set[str]]:
        out: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                out[lineno] = {c.strip() for c in m.group(1).split(",")}
        return out

    @staticmethod
    def _scan_imports(tree: ast.Module) -> Dict[str, str]:
        """Bound name -> dotted origin, for ``import``/``from`` forms.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
        import default_rng`` maps ``default_rng -> numpy.random.default_rng``;
        ``from datetime import datetime`` maps ``datetime ->
        datetime.datetime``.  Rules resolve call chains against this to
        match module APIs however they were imported.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    aliases[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports stay package-internal
                for a in node.names:
                    if a.name == "*":
                        continue
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        return aliases

    @staticmethod
    def _scan_nested_defs(tree: ast.Module) -> Set[str]:
        """Names of functions defined inside another function or lambda
        (not picklable by reference — the ``parallel_map`` contract)."""
        nested: Set[str] = set()

        def walk(node: ast.AST, inside: bool) -> None:
            for child in ast.iter_child_nodes(node):
                is_fn = isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                if is_fn and inside:
                    nested.add(child.name)
                walk(child, inside or is_fn or isinstance(child, ast.Lambda))

        walk(tree, False)
        return nested

    # ------------------------------------------------------------------
    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Dotted name of a call target with the root import expanded.

        ``np.random.rand`` -> ``numpy.random.rand`` under ``import numpy
        as np``; a bare ``default_rng`` imported from ``numpy.random``
        -> ``numpy.random.default_rng``.
        """
        name = dotted_name(func)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        origin = self.module_aliases.get(root)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin

    def suppressed(self, code: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        return codes is not None and code in codes


class Rule:
    """One invariant checker with a stable ``REPRO###``-style code.

    Subclasses set ``code``/``title``/``contract`` and implement any of:

    - ``check(node, ctx)`` for nodes whose type is in ``node_types``
      (driven by the shared single walk in :mod:`repro.analysis.runner`);
    - ``check_module(ctx)``, called once per module;
    - ``check_project(contexts)``, called once per lint run with every
      module context (cross-file invariants, e.g. the C-kernel constant
      mirror check).

    ``applies(ctx)`` scopes a rule by path; the default is everything.
    """

    code: str = ""
    title: str = ""
    #: the repo contract this rule guards, and which PR established it
    contract: str = ""
    node_types: Tuple[type, ...] = ()

    def applies(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterable[Finding]:
        return ()

    # ------------------------------------------------------------------
    def finding(
        self, ctx_or_path, node: Optional[ast.AST], message: str,
        *, line: int = 1, col: int = 0,
    ) -> Finding:
        path = (
            ctx_or_path.path
            if isinstance(ctx_or_path, ModuleContext)
            else str(ctx_or_path)
        )
        if node is not None:
            line = node.lineno
            col = node.col_offset
        return Finding(self.code, path, line, col, message)
