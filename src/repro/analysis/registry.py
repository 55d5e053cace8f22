"""Rule registry: stable codes, registration, and --select/--ignore.

Codes are permanent once shipped (a suppression written
against ``DET001`` must keep meaning the same check forever); the
registry enforces the ``ABC###`` shape and rejects duplicates at import
time so two rules can never race for one code.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Type

from .core import Rule

__all__ = ["register", "all_rules", "rule_codes", "resolve_codes", "RuleSelectionError"]

_CODE_RE = re.compile(r"^[A-Z]{3}\d{3}$")

_REGISTRY: Dict[str, Type[Rule]] = {}


class RuleSelectionError(ValueError):
    """An unknown or malformed rule code in --select/--ignore."""


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (code must be new)."""
    code = cls.code
    if not _CODE_RE.match(code or ""):
        raise ValueError(f"{cls.__name__}: rule code {code!r} is not ABC###")
    if code in _REGISTRY:
        raise ValueError(
            f"rule code {code} already taken by {_REGISTRY[code].__name__}"
        )
    _REGISTRY[code] = cls
    return cls


def rule_codes() -> List[str]:
    """Every registered code, sorted."""
    return sorted(_REGISTRY)


def resolve_codes(spec: Optional[str]) -> Optional[List[str]]:
    """Parse a comma-separated ``--select``/``--ignore`` value.

    Returns None for an absent spec; raises :class:`RuleSelectionError`
    on codes that are not registered (a typo must fail loudly, not
    silently lint nothing).
    """
    if spec is None:
        return None
    codes = [c.strip() for c in spec.split(",") if c.strip()]
    unknown = [c for c in codes if c not in _REGISTRY]
    if unknown:
        raise RuleSelectionError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(rule_codes())}"
        )
    return codes


def all_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Instantiate the active rule set, sorted by code."""
    selected = set(select) if select is not None else set(_REGISTRY)
    selected -= set(ignore or ())
    return [_REGISTRY[code]() for code in sorted(selected)]
