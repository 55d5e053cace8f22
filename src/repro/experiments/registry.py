"""The experiment registry: one entry per study, one way to run each.

``repro experiment NAME`` and the benchmark targets both run a study
through :meth:`Experiment.run`, so ``--seed/--workers/--checkpoint/
--resume`` mean the same thing for every driver, and every result is
written by :func:`repro.experiments.reporting.write_csv`.  Entries name
their driver and formatter as ``"module:attribute"`` strings resolved on
use, so importing this module loads no driver.  A figure sweep's driver
is its :class:`~repro.experiments.runner.Sweep` declaration in
:mod:`repro.experiments.sweeps`, a runtime study's its
:class:`~repro.experiments.runner.Study` declaration; the registry holds
every study's only default seed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from typing import Callable, Dict, Optional

from .config import ScaleConfig, get_scale
from .reporting import results_dir

__all__ = ["Experiment", "EXPERIMENTS", "code_digest", "open_journal",
           "scale_digest"]


def _resolve(ref: str) -> Callable:
    module, _, attr = ref.partition(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), attr)


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """A digest of every ``.py`` source of the ``repro`` package.

    Part of a journal's fingerprint: records written by other code may
    have another shape or other values, so a resume under changed code
    is refused rather than spliced.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                h.update(rel.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def scale_digest(cfg: ScaleConfig) -> str:
    """A digest of every field of ``cfg``, its name included."""
    return hashlib.sha256(repr(astuple(cfg)).encode()).hexdigest()[:16]


def open_journal(name: str, scale, seed: int, checkpoint,
                 resume: bool = False, options: Optional[dict] = None):
    """Resolve ``--checkpoint``/``--resume`` into an open journal (or None).

    ``checkpoint`` may be falsy (no journalling), an explicit path, or
    ``"auto"`` — the CLI's bare ``--checkpoint`` — which lands under
    ``results/checkpoints/``.  The journal is fingerprinted with
    ``name:cfg:scale:seed:code`` (``cfg`` names the resolved ``scale``,
    :func:`scale_digest` digests all of it, ``code`` is :func:`code_digest`),
    followed by the driver's ``options`` (e.g. ``topologies``) that are
    not ``None``, so a resume against a different configuration or
    different code fails loudly instead of splicing mismatched results:
    journal items are keyed by index, which other options would give
    other cells.
    """
    if not checkpoint:
        if resume:
            raise ValueError("--resume requires --checkpoint")
        return None
    from ..parallel import SweepJournal

    cfg = get_scale(scale)
    if checkpoint == "auto":
        checkpoint = os.path.join(
            results_dir(), "checkpoints", f"{name}_{cfg.name}_seed{seed}.journal"
        )
    fingerprint = (f"{name}:{cfg.name}:{scale_digest(cfg)}:{seed}:"
                   f"{code_digest()}")
    options = sorted((k, v) for k, v in (options or {}).items()
                     if v is not None)
    if options:
        fingerprint += f":{options!r}"
    return SweepJournal(checkpoint, fingerprint=fingerprint, resume=resume)


@dataclass(frozen=True)
class Experiment:
    """A named study: its driver, its text formatter and its default seed."""

    name: str
    driver: str      # "module:callable" returning a result with csv_rows()
    formatter: str   # "module:function" rendering that result as text
    seed: int

    def run(self, scale="smoke", *, seed: Optional[int] = None,
            workers: Optional[int] = None,
            progress: Optional[Callable[[str], None]] = None,
            checkpoint=None, resume: bool = False, **kwargs):
        """Run the driver; ``checkpoint``/``resume`` journal completed
        work items (see :func:`open_journal`) so an interrupted run
        restarts where it left off with byte-identical results."""
        seed = self.seed if seed is None else seed
        journal = open_journal(
            self.name, get_scale(scale), seed, checkpoint, resume, kwargs,
        )
        with journal if journal is not None else nullcontext():
            return _resolve(self.driver)(
                scale=scale, seed=seed, workers=workers, progress=progress,
                journal=journal, **kwargs,
            )

    def format(self, result) -> str:
        return _resolve(self.formatter)(result)


_SWEEP = "reporting:format_sweep_table"

EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment("fig3", "sweeps:fig3", _SWEEP, 3),
    Experiment("fig4", "sweeps:fig4", _SWEEP, 4),
    Experiment("fig5", "sweeps:fig5", _SWEEP, 5),
    Experiment("fig6", "sweeps:fig6", _SWEEP, 6),
    Experiment("fig7", "sweeps:fig7", _SWEEP, 7),
    Experiment("table1", "table1:run", "table1:format_table", 10),
    Experiment("scaling", "sweeps:scaling", "scaling:format_report", 30),
    Experiment("baselines", "sweeps:baselines", _SWEEP, 40),
    Experiment("ablation-cuts", "sweeps:ablation_cuts", _SWEEP, 21),
    Experiment("ablation-gamma", "sweeps:ablation_gamma", _SWEEP, 22),
    Experiment("ablation-streaming", "sweeps:ablation_streaming", _SWEEP, 23),
    Experiment("robustness", "robustness:run",
               "robustness:format_robustness_table", 77),
    Experiment("replan", "robustness:run_replan",
               "robustness:format_replan_table", 78),
    Experiment("contention", "contention:run",
               "contention:format_contention_table", 79),
    Experiment("topology", "contention:run_topologies",
               "contention:format_topology_table", 79),
)}
