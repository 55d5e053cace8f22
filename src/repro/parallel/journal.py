"""Append-only checkpoint journal for interruptible sweeps.

A :class:`SweepJournal` records every completed work item as one
self-contained line ``{"k": <key>, "p": <base64(pickle(result))>}`` under
a header that fingerprints the run configuration.  Because each record is
a single line flushed as a whole, a crash mid-write can at worst leave
one *partial trailing line*, which the loader drops — everything before
it stays valid.  Resuming is therefore: reopen the journal, skip every
item whose key is present, recompute only the rest.

The determinism story is the seed-sharding contract's: a journalled
result was produced from the item's own :class:`~numpy.random.SeedSequence`,
so replaying the sweep with the same configuration computes byte-for-byte
the same value the journal holds — an interrupted-then-resumed run emits
a CSV identical to an uninterrupted one (pinned in
``tests/test_supervisor.py``).

The fingerprint (driver name, scale config, seed and, from the experiment
registry, a digest of the package sources) guards against resuming with
a journal from a *different* run or from other code, which would
silently splice mismatched results; :class:`JournalError` is raised
instead.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from typing import Dict, Iterator, Optional

__all__ = ["JournalError", "SweepJournal"]

_FORMAT = "repro-journal-v1"

#: sentinel distinguishing "key absent" from a journalled None result
_MISSING = object()


class JournalError(RuntimeError):
    """A journal file that cannot be trusted for this run."""


class SweepJournal:
    """One run's append-only (item key -> result) record.

    ``resume=False`` (a fresh ``--checkpoint`` run) truncates any
    existing file; ``resume=True`` loads prior records first.  Keys are
    arbitrary strings — :func:`repro.parallel.parallel_map` uses
    ``"{label}:{index}"`` and drivers namespace multi-phase sweeps via
    :meth:`scoped`.
    """

    def __init__(self, path: str, *, fingerprint: str, resume: bool = False):
        self.path = path
        self.fingerprint = fingerprint
        self._records: Dict[str, object] = {}
        self.n_loaded = 0
        self.n_corrupt = 0
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        if resume and os.path.exists(path):
            self._load()
            self._fh = open(path, "a")
        else:
            self._fh = open(path, "w")
            self._fh.write(json.dumps(
                {"format": _FORMAT, "fingerprint": fingerprint}
            ) + "\n")
            self._fh.flush()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        with open(self.path) as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except ValueError as exc:
                raise JournalError(
                    f"{self.path}: unreadable journal header"
                ) from exc
            if header.get("format") != _FORMAT:
                raise JournalError(
                    f"{self.path}: not a {_FORMAT} journal"
                )
            if header.get("fingerprint") != self.fingerprint:
                raise JournalError(
                    f"{self.path}: journal fingerprint "
                    f"{header.get('fingerprint')!r} does not match this run "
                    f"({self.fingerprint!r}); refusing to splice results "
                    "from a different configuration"
                )
            for line in fh:
                try:
                    rec = json.loads(line)
                    payload = pickle.loads(base64.b64decode(rec["p"]))
                except (ValueError, KeyError, EOFError, pickle.PickleError):
                    # a crash mid-append leaves at most one partial
                    # trailing line; count it and stop trusting the rest
                    self.n_corrupt += 1
                    break
                self._records[rec["k"]] = payload
        self.n_loaded = len(self._records)

    # ------------------------------------------------------------------
    def get(self, key: str, default=None):
        return self._records.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    @property
    def n_recorded(self) -> int:
        """Records appended by *this* process (excludes loaded ones)."""
        return len(self._records) - self.n_loaded

    def record(self, key: str, payload) -> None:
        """Append one completed item; re-recording a loaded key is a no-op."""
        if key in self._records:
            return
        self._records[key] = payload
        blob = base64.b64encode(pickle.dumps(payload)).decode("ascii")
        # one whole line + flush: the atomic-append unit a resume trusts
        self._fh.write(json.dumps({"k": key, "p": blob}) + "\n")
        self._fh.flush()

    def scoped(self, prefix: str) -> "_ScopedJournal":
        """A view that namespaces keys (multi-phase drivers, sweep points)."""
        return _ScopedJournal(self, prefix)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _ScopedJournal:
    """Key-prefixing view over a :class:`SweepJournal` (same file)."""

    def __init__(self, base, prefix: str):
        self._base = base
        self._prefix = prefix

    def get(self, key: str, default=None):
        return self._base.get(self._prefix + key, default)

    def __contains__(self, key: str) -> bool:
        return (self._prefix + key) in self._base

    def record(self, key: str, payload) -> None:
        self._base.record(self._prefix + key, payload)

    def scoped(self, prefix: str) -> "_ScopedJournal":
        return _ScopedJournal(self._base, self._prefix + prefix)
