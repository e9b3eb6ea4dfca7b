"""Process-level helpers: child environments and resource accounting."""

from __future__ import annotations

import os
import resource
from pathlib import Path


def child_env(root: Path) -> dict[str, str]:
    """This environment with the checkout's ``src`` and root importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cpu_seconds() -> float:
    """CPU of this process plus every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib(server_kib: int = 0) -> float:
    """Own peak resident size, plus the peak a server reported for itself
    and its workers when the measured work ran there (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (peak + server_kib) / 1024.0
