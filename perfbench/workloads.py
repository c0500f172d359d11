"""The benchmark's workloads: CLI argument lists built from a seed.

Every call is a `bcsdp` command line exactly as a user would type it; the
benchmark runs it in-process through `bcsdp.cli.main(argv)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Published desk-scale table: spec -> (pinned C, {offset: (bound, chi or None)}).
# These are the values of acceptance criterion 2.  Excluded as documented
# there: the FI(6,1) row (the generator rejects it) and the printed FI(6,2/3)
# optimum 7 at m = 10, which is provably a misprint for 8.
PUBLISHED = {
    "kneser:5,2": (4, {0: (2.50, 3), -1: (10 / 3, 4), -2: (5.00, 5), -3: (10.00, None)}),
    "kneser:6,2": (5, {0: (3.00, 4), -1: (3.75, 4), -2: (5.00, 5), -3: (7.50, 8)}),
    "kneser:7,2": (6, {0: (3.50, 5), -1: (4.20, 5), -2: (5.25, 6), -3: (7.00, 7)}),
    "kneser:8,2": (6, {0: (14 / 3, 6), -1: (5.60, 6), -2: (7.00, 7), -3: (28 / 3, 10)}),
    "fi:6,2/3": (10, {0: (6.40, 8), -1: (None, 8), -2: (None, 8), -3: (None, 10)}),
}

PUBLISHED_TOLERANCE = 0.05

# Number of G(45, 0.5) instances whose `--m-offset` calls exercise the oracle.
DESK_GNP_N = 45
DESK_GNP_COUNT = 24
# Caps a rare heavy-tailed search so that a run ends in time.  On a timeout
# the CLI exits with an error, which counts as a failed operation.
DESK_ORACLE_LIMIT_S = 20


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    published_bound: Optional[float] = None
    published_chi: Optional[int] = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def partition_path(self) -> Optional[str]:
        if "--out" in self.argv:
            return self.argv[self.argv.index("--out") + 1]
        return None

    def label(self) -> str:
        """The command line without the per-pass output path."""
        argv = list(self.argv)
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i:i + 2]
        return " ".join(argv)


# workload name -> seeded input files written during set-up
WORKLOADS = {
    "bound-large": (),
    "colour-kms": ("tt80",),
    "desk-table": (),
    "generic-kernels": ("tt8",),
}


def _json(*argv: str) -> tuple[str, ...]:
    return (*argv, "--output-format", "json")


def calls(name: str, seed: int, files: dict[str, Path], out_dir: Path) -> list[Call]:
    """The workload's calls for one pass; colour calls write into out_dir."""

    def out(i: int) -> tuple[str, str]:
        return ("--out", str(out_dir / f"call{i}.part"))

    if name == "bound-large":
        return [
            Call(_json("bound", "--gen", f"gnp:160,0.5,{seed}", "--m", "5")),
            Call(_json("bound", "--gen", "fi:6,2/3", "--m", "10")),
            Call(_json("bound", "--gen", f"gnp:120,0.5,{seed}", "--relax", "lovasz")),
        ]
    if name == "colour-kms":
        return [
            Call(_json("colour", "--gen", f"gnp:160,0.5,{seed}", "--m", "5",
                       "--method", "kms", "--attempts", "50", *out(0))),
            Call(_json("colour", str(files["tt80"]), "--m", "5",
                       "--method", "kms", "--attempts", "50", *out(1))),
        ]
    if name == "desk-table":
        out_calls = []
        for spec, (big_c, cells) in PUBLISHED.items():
            for offset, (value, chi) in cells.items():
                out_calls.append(Call(
                    _json("bound", "--gen", spec, "--m", str(big_c + offset)),
                    published_bound=value, published_chi=chi,
                ))
        for k in range(DESK_GNP_COUNT):
            out_calls.append(Call(_json(
                "bound", "--gen", f"gnp:{DESK_GNP_N},0.5,{seed + k}", "--m-offset", "-2",
                "--oracle-limit", str(DESK_ORACLE_LIMIT_S),
            )))
        return out_calls
    if name == "generic-kernels":
        tt8 = str(files["tt8"])
        return [
            Call(_json("bound", tt8, "--relax", "rooms", "--m", "2")),
            Call(_json("colour", tt8, "--m", "2", "--method", "kms",
                       "--attempts", "50", *out(1))),
            *(
                Call(_json("colour", "--gen", f"gnp:16,0.5,{seed + k}", "--m", "3",
                           "--method", "iterative", *out(2 + k)))
                for k in range(2)
            ),
        ]
    raise KeyError(name)
