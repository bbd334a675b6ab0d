"""Seeded input generators for the three benchmark workloads.

Each generator writes one scenario file (plus any ``.finmat`` inputs it
names) into a fresh directory and returns a ``Workload`` describing what was
written.  The program under test only ever sees those files.  Generation
uses Python's ``random.Random`` and plain float formatting, so the same seed
gives byte-identical files on every machine.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

SCENARIO_NAME = "scenario.txt"

#: Half-open index range [-620, 620) that the `families` run walks for
#: weight2: the cross families reach j - 3n = -610 at n = 200, m = 10.
FAMILIES_TABLE = range(-620, 620)

#: Declared window of the `construct` table permutation.  The run reaches
#: |index| <= 8 + 2 * 2 * 40 = 168, so every reached index acts as +1.
CONSTRUCT_CYCLE = 200

#: Piecewise weight pairs (neg > 1 > nonneg) the `dual` workload draws from.
DUAL_PAIRS = (
    ("2", "1/2"),
    ("3", "1/3"),
    ("5/2", "2/5"),
    ("4", "1/4"),
    ("3/2", "2/3"),
    ("5", "1/5"),
)


@dataclass(frozen=True)
class Workload:
    """A generated workload: where its scenario lives and the numbers the
    correctness gate needs to rebuild the expected outputs independently."""

    name: str
    seed: int
    scenario: str
    params: dict = field(default_factory=dict)


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512 (seed version 2): stable across runs
    # and platforms, and distinct per workload.
    return random.Random(f"opdyn-perfbench:{name}:{seed}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _scenario(lines: list[str]) -> str:
    return "opdyn-scenario v1\n" + "".join(f"{line}\n" for line in lines)


def gen_families(seed: int, directory: str) -> Workload:
    rng = _rng("families", seed)
    table = {}
    for j in FAMILIES_TABLE:
        base = 3.0 if j < 0 else 1.0 / 3.0
        table[j] = base * math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
    weight2 = "explicit 1 " + " ".join(f"{j}:{w!r}" for j, w in table.items())
    text = _scenario(
        [
            "name = bench-families",
            "mode = corollary",
            "unitary = translation 1",
            "weight1 = piecewise 2 1/2",
            f"weight2 = {weight2}",
            "weight3 = piecewise 5/4 4/5",
            "r_list = 1 2 3",
            "n_seq = all-k",
            "m = 10",
            "k_max = 200",
            "tol = 1e-6",
        ]
    )
    path = os.path.join(directory, SCENARIO_NAME)
    _write(path, text)
    params = {
        "weights": [("piecewise", 2.0, 0.5), ("table", table), ("piecewise", 1.25, 0.8)],
        "r_list": (1, 2, 3),
        "m": 10,
        "k_max": 200,
        "tol": 1e-6,
    }
    return Workload("families", seed, path, params)


def _dense_target(rng: random.Random, m: int) -> dict[tuple[int, int], float]:
    raw = {
        (i, j): rng.gauss(0.0, 1.0)
        for i in range(-m, m + 1)
        for j in range(-m, m + 1)
    }
    scale = math.sqrt(math.fsum(v * v for v in raw.values()))
    return {key: v / scale for key, v in raw.items()}


def write_finmat_file(path: str, entries: dict[tuple[int, int], float]) -> None:
    """Write a matrix in the `finmat v1` text format, sorted by (row, col)."""
    lines = ["finmat v1"]
    lines.extend(f"{i} {j} {v!r}" for (i, j), v in sorted(entries.items()))
    _write(path, "\n".join(lines) + "\n")


def gen_construct(seed: int, directory: str) -> Workload:
    rng = _rng("construct", seed)
    m = 8
    names = ("target_f.finmat", "target_e1.finmat", "target_e2.finmat")
    targets = {}
    for name in names:
        targets[name] = _dense_target(rng, m)
        write_finmat_file(os.path.join(directory, name), targets[name])
    c = CONSTRUCT_CYCLE
    cycle = " ".join(f"{j}:{j + 1 if j < c else -c}" for j in range(-c, c + 1))
    text = _scenario(
        [
            "name = bench-construct",
            "mode = construct-phi",
            f"unitary = table {cycle}",
            "weight1 = piecewise 2 1/2",
            "weight2 = piecewise 3 1/3",
            "r_list = 1 2",
            f"m = {m}",
            "k_max = 40",
            "tol = 1e-6",
            "targets = " + " ".join(names),
        ]
    )
    path = os.path.join(directory, SCENARIO_NAME)
    _write(path, text)
    params = {"m": m, "k_max": 40, "tol": 1e-6, "f": targets[names[0]]}
    return Workload("construct", seed, path, params)


def dual_pairs(seed: int) -> tuple[int, int]:
    """Indices into DUAL_PAIRS for weight1 and weight2: seed 0 gives the
    canonical (2, 1/2), (3, 1/3); the 30 ordered pairs repeat with period 30."""
    ordered = [
        (a, b)
        for a in range(len(DUAL_PAIRS))
        for b in range(len(DUAL_PAIRS))
        if a != b
    ]
    return ordered[seed % len(ordered)]


def gen_dual(seed: int, directory: str) -> Workload:
    a, b = dual_pairs(seed)
    w1, w2 = DUAL_PAIRS[a], DUAL_PAIRS[b]
    text = _scenario(
        [
            "name = bench-dual",
            "mode = dual-transitivity",
            "unitary = translation 1",
            f"weight1 = piecewise {w1[0]} {w1[1]}",
            f"weight2 = piecewise {w2[0]} {w2[1]}",
            "r_list = 1 2",
            "m = 12",
            "k_max = 60",
            "tol = 1e-6",
            "adjoint_weights = true",
        ]
    )
    path = os.path.join(directory, SCENARIO_NAME)
    _write(path, text)
    return Workload("dual", seed, path, {"m": 12, "k_max": 60, "tol": 1e-6})


GENERATORS = {
    "families": gen_families,
    "construct": gen_construct,
    "dual": gen_dual,
}


def generate(name: str, seed: int, directory: str) -> Workload:
    """Write workload ``name`` for ``seed`` into ``directory`` (created)."""
    os.makedirs(directory, exist_ok=True)
    return GENERATORS[name](seed, directory)
