"""``repro serve`` as the benchmark starts it, reporting its peak memory.

Usage: ``python -m perfbench.serve PEAK_FILE SPANS_JSON serve [serve flags]``.
When the service exits (SIGINT stops it cleanly) it writes to ``PEAK_FILE``
the larger of its own peak resident size and its reaped shard workers', in
KiB.  The benchmark reads memory this way, not through its own
``RUSAGE_CHILDREN``, because that also holds the store fill of a
checkout's first run.  Unless ``SPANS_JSON`` is ``-``, the benchmark's span
recorder is installed and the spans are written there at exit.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

from perfbench.spans import Instrumentation, Recorder


def main(argv: list[str]) -> int:
    peak_file, spans_file, serve_args = Path(argv[0]), argv[1], argv[2:]
    recorder = None
    if spans_file != "-":
        recorder = Recorder()
        Instrumentation(recorder).install()
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        if recorder is not None:
            recorder.dump(Path(spans_file))
        peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        peak_file.write_text(f"{peak}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
