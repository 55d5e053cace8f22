"""Tests for the ``repro lint`` static-analysis framework.

Every rule gets a firing fixture and a passing fixture (driven through
:func:`repro.analysis.lint_sources`, the in-memory entry point), plus
coverage for inline suppressions, baselines, rule selection, the JSON
schema, the CLI exit statuses — and the meta-test that the repo's own
tree lints clean.
"""

import json
import subprocess
import sys

import pytest

from repro.analysis import (
    LintError,
    RuleSelectionError,
    all_rules,
    lint_sources,
    load_baseline,
    resolve_codes,
    rule_codes,
    run_lint,
    write_baseline,
)
from repro.analysis.core import ModuleContext
from repro.analysis.runner import JSON_SCHEMA_VERSION

# paths only matter for rule scoping: PKG is inside the repro package,
# OUT is a tests-style path outside it
PKG = "src/repro/mappers/fake.py"
OBS = "src/repro/obs/fake.py"
CLI = "src/repro/cli.py"
OUT = "tests/fake_test.py"


def findings_for(source, path=PKG, select=None):
    rules = all_rules(resolve_codes(select), None)
    report = lint_sources([(path, source)], rules)
    assert not report.errors
    return report.findings


def codes_for(source, path=PKG, select=None):
    return [f.code for f in findings_for(source, path, select)]


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_all_shipped_rules_registered(self):
        assert rule_codes() == [
            "CLI001", "DET001", "DET002", "EXC001",
            "KER001", "KER002", "OBS001", "PAR001", "PAR002", "TOL001",
        ]

    def test_unknown_code_rejected(self):
        with pytest.raises(RuleSelectionError):
            resolve_codes("DET001,NOPE99")

    def test_select_and_ignore(self):
        only = all_rules(resolve_codes("DET001,TOL001"), None)
        assert [r.code for r in only] == ["DET001", "TOL001"]
        rest = all_rules(None, resolve_codes("DET001"))
        assert "DET001" not in [r.code for r in rest]

    def test_every_rule_documents_its_contract(self):
        for rule in all_rules():
            assert rule.title, rule.code
            assert rule.contract, rule.code


# ---------------------------------------------------------------------------
# DET001 unseeded randomness
# ---------------------------------------------------------------------------

class TestDet001:
    def test_global_random_module(self):
        src = "import random\nx = random.random()\n"
        assert codes_for(src) == ["DET001"]

    def test_numpy_legacy_global(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes_for(src) == ["DET001"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes_for(src) == ["DET001"]

    def test_seeded_default_rng_ok(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "ss = np.random.SeedSequence(1)\n"
        )
        assert codes_for(src) == []

    def test_from_import_resolved(self):
        src = "from numpy.random import default_rng\nr = default_rng()\n"
        assert codes_for(src) == ["DET001"]

    def test_outside_package_not_scoped(self):
        src = "import random\nx = random.random()\n"
        assert codes_for(src, path=OUT) == []


# ---------------------------------------------------------------------------
# DET002 wall clock
# ---------------------------------------------------------------------------

class TestDet002:
    def test_perf_counter_in_algorithm(self):
        src = "import time\nt = time.perf_counter()\n"
        assert "DET002" in codes_for(src)

    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert "DET002" in codes_for(src)

    def test_obs_layer_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert codes_for(src, path=OBS) == []

    def test_cli_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert codes_for(src, path=CLI) == []

    def test_time_conversion_ok(self):
        src = "import time\ns = time.strftime('%H', time.gmtime(0.0))\n"
        assert codes_for(src) == []


# ---------------------------------------------------------------------------
# OBS001 write-only observability
# ---------------------------------------------------------------------------

class TestObs001:
    def test_snapshot_read_flagged(self):
        src = (
            "from repro.obs import metrics\n"
            "data = metrics.registry().snapshot()\n"
        )
        assert "OBS001" in codes_for(src)

    def test_spans_read_flagged(self):
        src = "def f(tracer):\n    return tracer.spans\n"
        assert "OBS001" in codes_for(src)

    def test_recording_ok(self):
        src = (
            "from repro.obs import metrics\n"
            "metrics.counter('runs').inc()\n"
        )
        assert codes_for(src) == []

    def test_obs_layer_may_read(self):
        src = "def f(tracer):\n    return tracer.spans\n"
        assert codes_for(src, path=OBS) == []


# ---------------------------------------------------------------------------
# CLI001 bare print
# ---------------------------------------------------------------------------

class TestCli001:
    def test_bare_print_flagged(self):
        assert codes_for("print('hi')\n") == ["CLI001"]

    def test_cli_module_exempt(self):
        assert codes_for("print('hi')\n", path=CLI) == []

    def test_reporter_ok(self):
        src = (
            "from repro.obs import get_reporter\n"
            "get_reporter().out('hi')\n"
        )
        assert codes_for(src) == []

    def test_shadowed_print_ok(self):
        src = "def f(print):\n    print('hi')\n"
        # a rebound local named print is technically fine; the rule
        # only looks at the global builtin name, accept the finding
        # either way as long as it does not crash
        findings_for(src)


# ---------------------------------------------------------------------------
# TOL001 tolerance literals
# ---------------------------------------------------------------------------

class TestTol001:
    def test_area_tol_literal_flagged(self):
        assert codes_for("TOL = 1e-9\n") == ["TOL001"]

    def test_area_band_literal_flagged(self):
        assert codes_for("BAND = 1e-6\n") == ["TOL001"]

    def test_costmodel_is_the_source(self):
        src = "AREA_TOL = 1e-9\n"
        path = "src/repro/evaluation/costmodel.py"
        assert codes_for(src, path=path) == []

    def test_other_literals_ok(self):
        assert codes_for("x = 1e-8\ny = 0.5\nn = 10\n") == []

    def test_integer_not_coerced(self):
        # int 0 must not compare equal to a guarded float via ==
        assert codes_for("n = 0\n") == []


# ---------------------------------------------------------------------------
# PAR001 picklable parallel_map callables
# ---------------------------------------------------------------------------

class TestPar001:
    def test_lambda_flagged(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "r = parallel_map(lambda x: x, [1], workers=2)\n"
        )
        assert codes_for(src) == ["PAR001"]

    def test_nested_def_flagged(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def run():\n"
            "    def job(x):\n"
            "        return x\n"
            "    return parallel_map(job, [1], workers=2)\n"
        )
        assert codes_for(src) == ["PAR001"]

    def test_module_level_callable_ok(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "def job(x):\n"
            "    return x\n"
            "r = parallel_map(job, [1], workers=2)\n"
        )
        assert codes_for(src) == []

    def test_applies_outside_package_too(self):
        src = (
            "from repro.parallel import parallel_map\n"
            "r = parallel_map(lambda x: x, [1])\n"
        )
        assert codes_for(src, path=OUT) == ["PAR001"]


# ---------------------------------------------------------------------------
# PAR002 bounded retries / no ad-hoc sleeps
# ---------------------------------------------------------------------------

class TestPar002:
    def test_time_sleep_in_algorithm_module(self):
        src = "import time\ntime.sleep(0.5)\n"
        assert codes_for(src, select="PAR002") == ["PAR002"]

    def test_sleep_alias_resolved(self):
        src = "from time import sleep\nsleep(1)\n"
        assert codes_for(src, select="PAR002") == ["PAR002"]

    def test_unbounded_retry_loop_flagged(self):
        src = (
            "while True:\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        continue\n"
        )
        assert codes_for(src, select="PAR002") == ["PAR002"]

    def test_loop_with_break_ok(self):
        src = (
            "while True:\n"
            "    try:\n"
            "        work()\n"
            "        break\n"
            "    except ValueError:\n"
            "        continue\n"
        )
        assert codes_for(src, select="PAR002") == []

    def test_bounded_for_retry_ok(self):
        src = (
            "for attempt in range(3):\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        continue\n"
        )
        assert codes_for(src, select="PAR002") == []

    def test_obs_and_cli_exempt(self):
        src = "import time\ntime.sleep(0.5)\n"
        assert codes_for(src, path=OBS, select="PAR002") == []
        assert codes_for(src, path=CLI, select="PAR002") == []

    def test_outside_package_ok(self):
        src = "import time\ntime.sleep(0.5)\n"
        assert codes_for(src, path=OUT, select="PAR002") == []

    def test_pragma_suppresses(self):
        src = "import time\ntime.sleep(0.5)  # repro-lint: disable=PAR002\n"
        assert codes_for(src, select="PAR002") == []


# ---------------------------------------------------------------------------
# EXC001 silent except
# ---------------------------------------------------------------------------

class TestExc001:
    def test_bare_except_flagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert codes_for(src) == ["EXC001"]

    def test_silent_typed_except_flagged(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert codes_for(src) == ["EXC001"]

    def test_handled_except_ok(self):
        src = "try:\n    f()\nexcept ValueError:\n    x = 1\n"
        assert codes_for(src) == []

    def test_reraise_ok(self):
        src = "try:\n    f()\nexcept ValueError:\n    raise\n"
        assert codes_for(src) == []


# ---------------------------------------------------------------------------
# KER001 C kernel constant mirrors
# ---------------------------------------------------------------------------

class TestKer001:
    def test_repo_kernel_is_consistent(self):
        from repro.evaluation._ckernel import source_consistency_problems

        assert source_consistency_problems() == []

    def test_rule_fires_when_check_reports(self, monkeypatch):
        from repro.analysis import rules as rules_mod
        from repro.evaluation import _ckernel

        monkeypatch.setattr(
            _ckernel, "source_consistency_problems",
            lambda: [(42, "FNV prime drifted")],
        )
        active = all_rules(resolve_codes("KER001"), None)
        path = "src/repro/evaluation/_ckernel.py"
        report = lint_sources([(path, "x = 1\n")], active)
        assert [f.code for f in report.findings] == ["KER001"]
        assert report.findings[0].line == 42
        assert "FNV prime drifted" in report.findings[0].message

    def test_rule_silent_for_other_modules(self):
        active = all_rules(resolve_codes("KER001"), None)
        report = lint_sources([(PKG, "x = 1\n")], active)
        assert report.findings == []

    def test_python_mirrors_pin_the_kernel_constants(self):
        from repro.evaluation.kernel import (
            DEDUP_FNV_OFFSET,
            DEDUP_FNV_PRIME,
            DEDUP_TABLE_FACTOR,
        )

        # the values the C kernel has hashed with since PR 4 — changing
        # either silently invalidates nothing at runtime (dedup only
        # needs internal consistency) but MUST update both sides
        assert DEDUP_FNV_OFFSET == 1469598103934665603
        assert DEDUP_FNV_PRIME == 1099511628211
        assert DEDUP_TABLE_FACTOR == 2

    def test_drifted_vary_return_code_is_reported(self, monkeypatch):
        from repro.evaluation import _ckernel

        source = _ckernel._C_SOURCE
        assert "#define REPRO_VARY_WALK 2" in source
        monkeypatch.setattr(
            _ckernel, "_C_SOURCE",
            source.replace("#define REPRO_VARY_WALK 2",
                           "#define REPRO_VARY_WALK 3"),
        )
        problems = _ckernel.source_consistency_problems()
        assert len(problems) == 1
        assert "repro_vary return code WALK is 3" in problems[0][1]


# ---------------------------------------------------------------------------
# KER002 C kernel stays topology-agnostic
# ---------------------------------------------------------------------------

class TestKer002:
    def test_repo_kernel_is_topology_agnostic(self):
        active = all_rules(resolve_codes("KER002"), None)
        path = "src/repro/evaluation/_ckernel.py"
        source = open(path).read()
        report = lint_sources([(path, source)], active)
        assert report.findings == []

    def test_rule_fires_on_routing_identifiers(self, monkeypatch):
        from repro.evaluation import _ckernel

        monkeypatch.setattr(
            _ckernel, "_C_SOURCE",
            "static double x;\nint hop_count = 0;\nint route_to[4];\n",
        )
        active = all_rules(resolve_codes("KER002"), None)
        path = "src/repro/evaluation/_ckernel.py"
        report = lint_sources([(path, "x = 1\n")], active)
        assert [f.code for f in report.findings] == ["KER002", "KER002"]
        assert report.findings[0].line == 2
        assert "'hop_count'" in report.findings[0].message or \
            "hop" in report.findings[0].message

    def test_rule_silent_for_other_modules(self):
        active = all_rules(resolve_codes("KER002"), None)
        report = lint_sources([(PKG, "x = 1\n")], active)
        assert report.findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_inline_disable(self):
        src = "print('x')  # repro-lint: disable=CLI001\n"
        report = lint_sources([(PKG, src)], all_rules())
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_disable_only_named_code(self):
        src = "print('x')  # repro-lint: disable=TOL001\n"
        assert codes_for(src) == ["CLI001"]

    def test_multi_code_disable(self):
        src = (
            "import time\n"
            "t = print(time.time())"
            "  # repro-lint: disable=CLI001,DET002\n"
        )
        report = lint_sources([(PKG, src)], all_rules())
        assert report.findings == []
        assert report.n_suppressed == 2

    def test_suppression_is_line_scoped(self):
        src = (
            "print('a')  # repro-lint: disable=CLI001\n"
            "print('b')\n"
        )
        report = lint_sources([(PKG, src)], all_rules())
        assert [f.line for f in report.findings] == [2]


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

class TestBaseline:
    def test_roundtrip_subtracts_known_findings(self, tmp_path):
        # dir named "repro" so the package-scoped rules fire
        src_dir = tmp_path / "repro"
        src_dir.mkdir()
        f = src_dir / "mod.py"
        f.write_text("print('old debt')\n")
        base = tmp_path / "baseline.json"

        before = run_lint([str(src_dir)])
        assert [x.code for x in before.findings] == ["CLI001"]
        write_baseline(str(base), before.findings)

        after = run_lint([str(src_dir)], baseline=str(base))
        assert after.findings == []
        assert after.n_baselined == 1
        assert after.clean

    def test_new_debt_still_reported(self, tmp_path):
        src_dir = tmp_path / "repro"
        src_dir.mkdir()
        f = src_dir / "mod.py"
        f.write_text("print('old debt')\n")
        base = tmp_path / "baseline.json"
        write_baseline(str(base), run_lint([str(src_dir)]).findings)

        f.write_text("print('old debt')\nprint('new debt')\n")
        report = run_lint([str(src_dir)], baseline=str(base))
        assert [x.line for x in report.findings] == [2]

    def test_malformed_baseline_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(LintError):
            load_baseline(str(bad))


# ---------------------------------------------------------------------------
# runner / report plumbing
# ---------------------------------------------------------------------------

class TestRunner:
    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            run_lint(["does/not/exist"])

    def test_syntax_error_reported_not_raised(self):
        report = lint_sources([(PKG, "def broken(:\n")], all_rules())
        assert report.errors and not report.clean

    def test_findings_sorted_and_deterministic(self):
        src = "print('b')\nprint('a')\n"
        r1 = lint_sources([(PKG, src), (OUT, "x = 1\n")], all_rules())
        r2 = lint_sources([(PKG, src), (OUT, "x = 1\n")], all_rules())
        assert [f.sort_key for f in r1.findings] == sorted(
            f.sort_key for f in r1.findings
        )
        assert [f.to_dict() for f in r1.findings] == [
            f.to_dict() for f in r2.findings
        ]

    def test_json_schema_stable(self):
        report = lint_sources([(PKG, "print('x')\n")], all_rules())
        doc = report.to_json()
        assert doc["version"] == JSON_SCHEMA_VERSION == 1
        assert sorted(doc) == [
            "counts", "findings", "n_files", "n_suppressed",
            "rules", "version",
        ]
        (entry,) = doc["findings"]
        assert sorted(entry) == ["code", "col", "line", "message", "path"]
        assert doc["counts"] == {"CLI001": 1}

    def test_pkg_relative_path_detection(self):
        assert ModuleContext(PKG, "").pkg_rel == "mappers/fake.py"
        assert ModuleContext(OUT, "").pkg_rel is None
        installed = "/x/site-packages/repro/evaluation/kernel.py"
        assert ModuleContext(installed, "").pkg_rel == "evaluation/kernel.py"


# ---------------------------------------------------------------------------
# CLI integration + the meta-test
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True,
    )


class TestCli:
    def test_repo_tree_lints_clean(self):
        # THE meta-test: the repo enforces its own invariants
        proc = run_cli("src", "tests", "benchmarks")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_findings_exit_1(self, tmp_path):
        # path outside the package: only unscoped rules apply, so use
        # a parallel_map violation, which fires everywhere
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro.parallel import parallel_map\n"
            "parallel_map(lambda x: x, [1])\n"
        )
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "PAR001" in proc.stdout

    def test_unknown_rule_exit_2(self):
        proc = run_cli("--select", "NOPE99", "src")
        assert proc.returncode == 2

    def test_missing_path_exit_2(self):
        proc = run_cli("no/such/dir")
        assert proc.returncode == 2

    def test_json_reflects_ignore(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro.parallel import parallel_map\n"
            "parallel_map(lambda x: x, [1])\n"
        )
        with_rule = json.loads(run_cli("--json", str(bad)).stdout)
        assert "PAR001" in with_rule["rules"]
        assert with_rule["counts"] == {"PAR001": 1}

        without = run_cli("--ignore", "PAR001", "--json", str(bad))
        assert without.returncode == 0
        doc = json.loads(without.stdout)
        assert "PAR001" not in doc["rules"]
        assert doc["findings"] == [] and doc["counts"] == {}

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in rule_codes():
            assert code in proc.stdout
