"""One set-up of a campaign workload in a fresh interpreter.

Usage: ``python -m perfbench.probe {cold,warm} [STORE_DIR]``.  Prints
``ready`` once the imports, the program build and (warm) the store open
are done; the parent times process start to that line.
"""

from __future__ import annotations

import sys
from pathlib import Path

from perfbench.campaigns import CampaignWorkload


def main(argv: list[str]) -> int:
    warm = argv[0] == "warm"
    work = CampaignWorkload(ref=None, warm=warm,
                            store_path=Path(argv[1]) if warm else None)
    work.setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
