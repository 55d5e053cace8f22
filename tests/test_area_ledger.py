"""The step-function area ledger against the event sweep it replaced.

:class:`repro.runtime.ledger.AreaLedger` must admit every claim at the
same start as the sweep ledger the runtime engine used before: for every
candidate start (``st0``, then the claim ends after it in time order) a
sorted event sweep over all live claims, ends before starts at equal
times, the first candidate whose peak plus the new area fits winning.
``_sweep_first_fit`` below is that ledger, kept here as the oracle.
Both count area in whole units of ``AREA_UNIT`` against the device's
``limit_units``, so both sums are exact; after every claim the ledger's
segments must equal the oracle's summed claims.

Streams are fed one claim at a time with an advancing ``now``: seeded
and hypothesis-drawn streams on a grid of times (so starts meet other
claims' ends), zero-length windows with and without a drain, drains
beyond ``st + exec_t``, claims that wait past several candidates, and
rebuilds from a subset of the live claims in a new order, as the
engine's rollback does.  Hand-built cases put an area sum within a few
units of the limit, where exactly ``limit_units`` fits and one unit
more does not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.costmodel import AREA_UNIT
from repro.runtime.ledger import AreaLedger

CAP = 10.0


def units(area):
    """``area`` in whole area units, as ``CostModel.area_units``."""
    return float(np.rint(area / AREA_UNIT))


#: ``CostModel.limit_units`` of a device with capacity CAP
LIMIT = units(CAP) + 1.0


def _sweep_first_fit(claims, now, st0, exec_t, drain, a, limit=LIMIT):
    """The sweep ledger: returns ``(st, fin, live claims after commit)``;
    areas and ``limit`` in units."""
    claims = [c for c in claims if c[1] > now]
    candidates = sorted({st0} | {ce for _, ce, _ in claims if ce > st0})
    s = fin = st0
    for s in candidates:
        fin = s + exec_t
        if drain > fin:
            fin = drain
        events = []
        for cs, ce, ca in claims:
            if cs < fin and ce > s:
                events.append((cs if cs > s else s, 1, ca))
                events.append((ce, 0, ca))
        events.sort(key=lambda e: (e[0], e[1]))
        cur = peak = 0.0
        for _, phase, ca in events:
            cur = cur + ca if phase else cur - ca
            if cur > peak:
                peak = cur
        if peak + a <= limit:
            break
    claims.append((s, fin, a))
    return s, fin, claims


class _Pair:
    """A ledger and the oracle fed the same claims (areas in units)."""

    def __init__(self, limit=LIMIT):
        self.limit = limit
        self.ledger = AreaLedger(limit)
        self.claims = []
        self.now = 0.0

    def claim(self, st0, exec_t, drain, area):
        """Claim ``area`` (real-valued, converted to units)."""
        return self.claim_units(st0, exec_t, drain, units(area))

    def claim_units(self, st0, exec_t, drain, a):
        got = self.ledger.first_fit(self.now, st0, exec_t, drain, a)
        s, fin, self.claims = _sweep_first_fit(
            self.claims, self.now, st0, exec_t, drain, a, self.limit
        )
        assert got == (s, fin), (got, (s, fin))
        # every live segment is the exact sum of the claims over it
        ledger = self.ledger
        for t, use in zip(ledger._ts, ledger._use):
            if t >= self.now:
                assert use == sum(
                    ca for cs, ce, ca in self.claims if cs <= t < ce), t
        return got

    def rebuild(self, keep):
        """Rebuild from ``keep`` (live claims, any order), as a rollback."""
        self.ledger = AreaLedger(self.limit)
        for c in keep:
            self.ledger.add(*c)
        self.claims = list(keep)


# ---------------------------------------------------------------------------
# hand-built streams
# ---------------------------------------------------------------------------
def test_an_end_frees_area_for_a_start_at_the_same_instant():
    p = _Pair()
    assert p.claim(0.0, 1.0, 0.0, 6.0) == (0.0, 1.0)
    assert p.claim(0.0, 1.0, 0.0, 6.0) == (1.0, 2.0)
    assert p.claim(1.0, 0.5, 0.0, 4.0) == (1.0, 1.5)
    # 6 + 4 are in use on [1, 1.5): candidates 0.5 and 1 fail
    assert p.claim(0.5, 2.0, 0.0, 4.0) == (1.5, 3.5)


def test_a_claim_waits_past_several_candidates():
    p = _Pair()
    for k in range(4):  # four overlapping claims ending at 1, 2, 3, 4
        p.claim(0.0, 1.0 + k, 0.0, 2.4)
    # 5 units need two of them gone: candidates 0 and 1 fail
    assert p.claim(0.0, 3.0, 0.0, 5.0) == (2.0, 5.0)


def test_zero_length_windows_count_only_claims_straddling_the_start():
    p = _Pair()
    p.claim(1.0, 1.0, 0.0, 7.0)             # [1, 2)
    p.claim(0.0, 2.0, 0.0, 2.5)             # [0, 2)
    # a zero-length window at 1 ignores the claim that starts at 1
    assert p.claim(1.0, 0.0, 0.0, 6.0) == (1.0, 1.0)
    # inside [1, 2) it counts 7 + 2.5 and waits for their ends
    assert p.claim(1.5, 0.0, 0.0, 6.0) == (2.0, 2.0)
    # a drain makes the first window non-empty; later ones are empty again
    assert p.claim(0.5, 0.0, 1.5, 6.0) == (2.0, 2.0)


def test_drains_beyond_the_execution_time_hold_the_area():
    p = _Pair()
    assert p.claim(0.0, 0.5, 3.0, 6.0) == (0.0, 3.0)
    assert p.claim(1.0, 0.5, 2.0, 6.0) == (3.0, 3.5)
    assert p.claim(3.0, 0.25, 5.0, 4.0) == (3.0, 5.0)


def test_a_rebuild_mid_stream_continues_like_the_sweep():
    p = _Pair()
    for k in range(6):
        p.claim(0.25 * k, 1.0, 0.0, 3.1)
    p.now = 0.75
    live = [c for c in p.claims if c[1] > p.now]
    p.rebuild(live[::-1][:-1])
    for k in range(6):
        p.claim(p.now + 0.25 * k, 0.75, 0.0, 2.3)


def test_sums_within_a_few_units_of_the_threshold_are_exact():
    """``x`` plus ``limit - x + k`` units fits exactly for ``k <= 0``,
    whatever float ``x`` was."""
    for x in (3.3, 0.1 + 0.2, 4.7):
        for k in range(-3, 4):
            p = _Pair()
            p.claim(0.0, 2.0, 0.0, x)
            st, _fin = p.claim_units(0.0, 1.0, 0.0, LIMIT - units(x) + k)
            assert (st == 0.0) == (k <= 0), (x, k)


def test_recount_orders_an_end_before_a_start_at_the_same_instant():
    """Two claims meet at 5: a claim over both, filling the budget to
    the unit next to either, must not count them together."""
    p = _Pair()
    p.claim(0.0, 5.0, 0.0, 4.0)
    p.claim(5.0, 5.0, 0.0, 4.0)
    a = LIMIT - units(4.0)
    assert p.claim_units(0.0, 10.0, 0.0, a) == (0.0, 10.0)
    assert p.claim_units(0.0, 10.0, 0.0, 1.0) == (10.0, 20.0)


def test_claim_starts_are_never_candidates():
    """The windows at 0 and at S's start (3) both hold P1 + P2 + S, so
    with ``a`` one unit over what fits next to them the ledger rejects 0
    and takes the next claim *end*, 100, never the start 3."""
    p1, p2, e = 1.98, 2.22, 1.07
    a = LIMIT - (units(p1) + units(p2) + units(e)) + 1.0
    p = _Pair()
    p.claim(3.0, 97.0, 0.0, e)              # S: [3, 100), listed first
    p.claim(0.0, 100.0, 0.0, p1)
    p.claim(0.0, 100.0, 0.0, p2)
    assert p.claim_units(0.0, 10.0, 0.0, a) == (100.0, 110.0)


# ---------------------------------------------------------------------------
# seeded and drawn streams
# ---------------------------------------------------------------------------
def _replay(ops, pair):
    """Feed ``ops`` to ``pair``; returns how many claims waited."""
    waited = 0
    for op in ops:
        if op[0] == "rebuild":
            live = [c for c in pair.claims if c[1] > pair.now]
            rng = np.random.default_rng(op[1])
            keep = [live[k] for k in rng.permutation(len(live))]
            pair.rebuild(keep[: len(keep) - op[1] % 2])
            continue
        dt, off, exec_t, drain_off, a = op
        pair.now += dt
        st0 = pair.now + off
        drain = 0.0 if drain_off is None else pair.now + drain_off
        waited += pair.claim(st0, exec_t, drain, a)[0] > st0
    return waited


GRID = st.integers(0, 8).map(lambda k: k * 0.25)
REQUEST = st.tuples(
    st.sampled_from([0.0, 0.0, 0.25, 0.5]),
    GRID,
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 3.0]),
    st.one_of(st.none(), GRID),
    st.sampled_from([0.1, 0.2, 0.7, 1.0, 2.3, 2.5, 3.3, 4.0, 6.1]),
)
OP = st.one_of(
    REQUEST, REQUEST, REQUEST, REQUEST,
    st.tuples(st.just("rebuild"), st.integers(0, 2**16)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OP, min_size=1, max_size=60))
def test_drawn_streams_match_the_sweep(ops):
    _replay(ops, _Pair())


def test_seeded_streams_match_the_sweep():
    """Long streams of random float areas and times, grid ties mixed in."""
    n_waits = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        pair = _Pair()
        ops = []
        for k in range(400):
            if k % 97 == 96:
                ops.append(("rebuild", int(rng.integers(2**16))))
                continue
            on_grid = rng.random() < 0.5
            ops.append((
                float(rng.exponential(0.1)) if not on_grid
                else 0.25 * int(rng.integers(0, 2)),
                float(rng.uniform(0.0, 1.0)) if not on_grid
                else 0.25 * int(rng.integers(0, 4)),
                0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 2.0)),
                None if rng.random() < 0.7 else float(rng.uniform(0.0, 3.0)),
                float(rng.uniform(0.2, 0.5) * CAP),
            ))
        n_waits += _replay(ops, pair)
    assert n_waits > 1000
