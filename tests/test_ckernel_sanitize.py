"""Sanitizer wiring for the C kernel (``REPRO_CKERNEL_SANITIZE``).

Pins four things:

- flag parsing (the ubsan spellings, loud ``ValueError`` on typos and on
  the AddressSanitizer spellings, which point at the standalone harness
  ``tests/kernel_harness.c``);
- the sanitize flags are part of the ``.so`` cache key, so plain and
  sanitized builds coexist and a flip never serves a stale binary;
- the C source ↔ Python mirror consistency check is green, and catches
  drift of the ctypes entry table;
- a UBSan-instrumented kernel produces **bit-identical** makespans
  (checked in a subprocess, so the sanitized ``.so`` never loads into
  the long-lived pytest process).

Sanitized compiles need a working cc with libubsan; the subprocess test
skips gracefully where that is missing (the ``kernel-sanitize`` CI job
runs the equivalence suites under the variable on a toolchain that has
it).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.evaluation import _ckernel

# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


class TestSanitizeFlags:
    def test_default_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_CKERNEL_SANITIZE", raising=False)
        assert _ckernel.sanitize_flags() == []

    @pytest.mark.parametrize("spec,groups", [
        ("ubsan", "undefined"),
        ("undefined", "undefined"),
        (" UBSan ", "undefined"),
        ("ubsan,undefined", "undefined"),  # dedup across spellings
    ])
    def test_spellings(self, monkeypatch, spec, groups):
        monkeypatch.setenv("REPRO_CKERNEL_SANITIZE", spec)
        assert _ckernel.sanitize_flags() == [
            f"-fsanitize={groups}", "-fno-omit-frame-pointer",
        ]

    def test_unknown_token_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CKERNEL_SANITIZE", "ubsan,tsan")
        with pytest.raises(ValueError, match="tsan"):
            _ckernel.sanitize_flags()

    @pytest.mark.parametrize("spec", ["asan", "address", "asan,ubsan"])
    def test_address_sanitizer_points_at_the_harness(self, monkeypatch,
                                                     spec):
        # an in-process ASan build sees none of the buffers the kernel
        # touches (CPython and numpy own them all), so it is refused
        monkeypatch.setenv("REPRO_CKERNEL_SANITIZE", spec)
        with pytest.raises(ValueError, match="tests/kernel_harness.c"):
            _ckernel.sanitize_flags()

    def test_empty_tokens_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CKERNEL_SANITIZE", " , ,")
        assert _ckernel.sanitize_flags() == []


# ---------------------------------------------------------------------------
# cache-key separation
# ---------------------------------------------------------------------------


class TestCacheKey:
    def test_sanitize_flags_change_the_key(self):
        plain = _ckernel._source_hash(_ckernel._CFLAGS)
        san = _ckernel._source_hash(
            _ckernel._CFLAGS
            + ["-fsanitize=undefined", "-fno-omit-frame-pointer"]
        )
        assert plain != san

    def test_builds_coexist_in_cache(self):
        # compiling both variants yields two distinct .so files
        plain_so = _ckernel._compile(_ckernel._CFLAGS)
        if plain_so is None:
            pytest.skip("no C compiler available")
        ub_so = _ckernel._compile(_ckernel._CFLAGS + ["-fsanitize=undefined"])
        if ub_so is None:
            pytest.skip("toolchain lacks UBSan support")
        assert plain_so != ub_so
        assert os.path.exists(plain_so) and os.path.exists(ub_so)


# ---------------------------------------------------------------------------
# C source <-> Python mirror consistency (the KER001 backing check)
# ---------------------------------------------------------------------------


class TestSourceConsistency:
    def test_green_on_this_tree(self):
        assert _ckernel.source_consistency_problems() == []

    def test_detects_an_offset_drift(self, monkeypatch):
        from repro.evaluation import kernel

        monkeypatch.setattr(kernel, "DEDUP_FNV_OFFSET", 12345)
        problems = _ckernel.source_consistency_problems()
        assert any("offset" in msg for _, msg in problems)

    def test_detects_a_table_factor_drift(self, monkeypatch):
        from repro.evaluation import kernel

        monkeypatch.setattr(kernel, "DEDUP_TABLE_FACTOR", 4)
        problems = _ckernel.source_consistency_problems()
        assert any("table-sizing" in msg for _, msg in problems)

    def test_detects_a_scan_bucket_drift(self, monkeypatch):
        monkeypatch.setattr(_ckernel, "SCAN_BUCKETS", 32)
        problems = _ckernel.source_consistency_problems()
        assert any("suffix-bucket" in msg for _, msg in problems)

    def test_detects_an_entry_table_arity_drift(self, monkeypatch):
        # repro_eval_move's table row loses its last argument (the bound)
        entries = [
            (name, restype, argtypes[:-1]) if name == "repro_eval_move"
            else (name, restype, argtypes)
            for name, restype, argtypes in _ckernel._ENTRIES
        ]
        monkeypatch.setattr(_ckernel, "_ENTRIES", tuple(entries))
        problems = _ckernel.source_consistency_problems()
        assert len(problems) == 1
        line, msg = problems[0]
        assert "repro_eval_move" in msg and "6 arguments" in msg
        source = _ckernel.kernel_source().splitlines()
        assert source[line - 1].startswith("double repro_eval_move(")

    def test_detects_a_missing_and_an_unknown_entry(self, monkeypatch):
        entries = [e for e in _ckernel._ENTRIES if e[0] != "repro_vary"]
        entries.append(("repro_gone", None, ()))
        monkeypatch.setattr(_ckernel, "_ENTRIES", tuple(entries))
        messages = [m for _, m in _ckernel.source_consistency_problems()]
        assert any("repro_vary is missing" in m for m in messages)
        assert any("repro_gone" in m for m in messages)


# ---------------------------------------------------------------------------
# bit-identical results under sanitizers (subprocess)
# ---------------------------------------------------------------------------

_CHILD = textwrap.dedent("""
    import json, sys
    import numpy as np
    from repro.evaluation import MappingEvaluator, _ckernel
    from repro.graphs import TaskGraph, augment
    from repro.platform import paper_platform

    g = TaskGraph.from_edges(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4)]
    )
    augment(g, np.random.default_rng(11))
    ev = MappingEvaluator(
        g, paper_platform(), rng=np.random.default_rng(0),
        n_random_schedules=16,
    )
    rng = np.random.default_rng(99)
    pop = rng.integers(
        0, ev.platform.n_devices, size=(32, ev.n_tasks), dtype=np.int64
    )
    spans = ev.construction_makespans(pop)
    print(json.dumps({
        "kernel": _ckernel.kernel_status()["kernel"],
        "sanitize": _ckernel.kernel_status()["sanitize"],
        "spans": spans.tolist(),
    }))
""")


def _run_child(extra_env):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CKERNEL_SANITIZE", None)
    env.pop("REPRO_PURE_PYTHON", None)
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=env, timeout=300,
    )
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_sanitized_kernel_is_bit_identical():
    plain, err = _run_child({})
    assert plain is not None, err
    if plain["kernel"] != "c":
        pytest.skip("no C compiler available")

    san, err = _run_child({"REPRO_CKERNEL_SANITIZE": "ubsan"})
    if san is None or san["kernel"] != "c":
        pytest.skip(f"sanitized build unavailable: {err}")
    assert san["sanitize"] == "ubsan"
    # IEEE semantics are untouched by the instrumentation: exact match
    assert san["spans"] == plain["spans"]


def test_bad_sanitize_spec_fails_loudly():
    out, err = _run_child({"REPRO_CKERNEL_SANITIZE": "fast"})
    assert out is None
    assert "unknown sanitizer" in err
