"""Seeded benchmark input files in the bcsdp-v1 format.

The files are generated by the benchmark's own code, not by the package's
generators, so a change to the package cannot change the inputs it is
measured on.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

EVENT_SIZES = (20, 50, 100)

# name -> (events, edge probability, room capacities)
TIMETABLES = {
    "tt80": (80, 0.3, (30, 60, 60, 120, 120)),
    "tt8": (8, 0.5, (60, 120)),
}


def timetable_text(name: str, seed: int) -> str:
    """A G(n, p) conflict graph with seeded event sizes and fixed room capacities."""
    n, p, caps = TIMETABLES[name]
    rng = random.Random(f"{name}:{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    sizes = [rng.choice(EVENT_SIZES) for _ in range(n)]
    lines = [f"bcsdp-v1 {name}", f"GRAPH {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines += [
        "sizes " + " ".join(map(str, sizes)),
        f"ROOMS {len(caps)}",
        "caps " + " ".join(map(str, caps)),
        "FEATURES 0",
        "PRECOLOUR 0",
        "END",
    ]
    return "\n".join(lines) + "\n"


def input_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.bcsdp"


def write_inputs(names: tuple[str, ...], seed: int, directory: Path) -> dict[str, Path]:
    """Write each named file as <directory>/<name>.bcsdp; return name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = input_path(directory, name)
        path.write_text(timetable_text(name, seed))
        paths[name] = path
    return paths
