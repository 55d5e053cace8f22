"""Environment diagnostics: the bug-report / benchmark-stamp header.

One function, :func:`collect_env`, gathers everything that determines
whether two runs of this codebase are comparable: package version,
Python and numpy versions, BLAS backend, which span kernel the process
will actually use (compiled C vs pure-Python fallback, and whether the
fallback was forced via ``REPRO_PURE_PYTHON``), and coarse host facts
(hostname, machine, CPU count).  ``repro env`` prints it; perfbench
records embed it so runs can be compared across machines with eyes
open.
"""

from __future__ import annotations

import os
import platform as _platform
import sys

__all__ = ["collect_env", "format_env"]


def _blas_backend() -> str:
    """Best-effort name of numpy's BLAS backend ("unknown" if opaque)."""
    import numpy as np

    try:  # numpy >= 1.26 exposes the build config as dicts
        cfg = np.show_config(mode="dicts")  # type: ignore[call-arg]
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        version = blas.get("version", "")
        if name:
            return f"{name} {version}".strip()
    except Exception:  # noqa: BLE001 - diagnostics must never raise  # repro-lint: disable=EXC001
        pass
    try:
        for section in ("blas_ilp64_opt_info", "blas_opt_info", "blas_info"):
            info = getattr(np.__config__, section, None)
            if info:
                libs = info.get("libraries")
                if libs:
                    return ", ".join(libs)
    except Exception:  # noqa: BLE001  # repro-lint: disable=EXC001
        pass
    return "unknown"


def collect_env() -> dict:
    """Everything that makes runs (in)comparable, as a flat JSON-safe dict."""
    import numpy as np

    from .. import __version__
    from ..evaluation._ckernel import kernel_status

    kernel = kernel_status()
    return {
        "repro": __version__,
        "python": sys.version.split()[0],
        "implementation": _platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas_backend(),
        "kernel": kernel["kernel"],
        "kernel_so": kernel["so_path"],
        "kernel_cflags": kernel["cflags"],
        "pure_python_forced": kernel["pure_python_forced"],
        "repro_pure_python": os.environ.get("REPRO_PURE_PYTHON") or "",
        "hostname": _platform.node(),
        "os": f"{_platform.system()} {_platform.release()}",
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def format_env(env: dict) -> str:
    """``key : value`` lines, aligned — what ``repro env`` prints."""
    width = max(len(k) for k in env)
    return "\n".join(
        f"{k:<{width}} : {'' if v is None else v}" for k, v in env.items()
    )
