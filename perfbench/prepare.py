"""Set-up step of one benchmark run, in a fresh process.

    python3 perfbench/prepare.py <workload> <seed> <directory>

Imports the package and writes the workload's seeded input files into
<directory>, then prints the seconds both took.  run.py times several of
these and reports their median as `setup_s`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import bcsdp.cli  # noqa: F401  (the import is what is being timed)

    from inputs import write_inputs
    from workloads import WORKLOADS

    write_inputs(WORKLOADS[workload], seed, directory)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
