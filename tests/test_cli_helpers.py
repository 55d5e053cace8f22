"""Tests for the experiment reporting helpers."""

import os

from repro.experiments.reporting import results_dir


class TestResultsDir:
    def test_env_override(self, monkeypatch, tmp_path):
        target = tmp_path / "deep" / "dir"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(target))
        assert results_dir() == str(target)
        assert target.is_dir()  # created on demand

    def test_default_cwd(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        path = results_dir()
        assert path == os.path.join(str(tmp_path), "results")
        assert os.path.isdir(path)
