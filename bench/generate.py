"""Seeded inputs for the benchmark workloads.

make_pass(workload, seed, index) returns the index-th pass of a workload's
operation list. The list is an endless sequence of passes, each drawn from
its own random stream, so the same seed gives the same operations in the
same order on every commit, and no two passes repeat an input (a result
cache in the library cannot turn a pass into lookups). Within a pass the
inputs are stratified, so every pass holds the same mix and a run's figures
do not depend on how many passes it completes.

The operations hold only inputs to the program and the labels the checker
needs; nothing here calls the library. Run this file to print the first pass:

    python3 bench/generate.py --workload construct --seed 1
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from checker import closure_ratio, four_chain_radii, pedoe_distance, third_moment_residual


# What each workload stresses; why it exists is its "why" in BENCHMARK.json.
STRESSES = {
    "sweep": "moments.complex_moment and bending_moment (O(samples n^3)); construction "
    "is about 45% of an n=4 sweep and 1.5% of an n=32 one",
    "construct": "geometry, porism, document and symmetric; no moments",
    "feasibility": "feasibility.virtual_gauge and porism.neighbor_bends; no construction "
    "and no moments",
    "cli": "cli.build_parser and main, document I/O, the twice-computed sweep of "
    "`steiner sweep` at small n; import cost shows in setup_s and cold_start_ms",
}


def why(workload: str) -> str:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


@dataclass(frozen=True)
class SweepOp:
    n: int
    R: float
    r: float
    d: float
    samples: int
    check_phase: float  # phase of the chain the checker takes moment sizes from


@dataclass(frozen=True)
class ConstructOp:
    n: int
    R: float
    r: float
    d: float
    phase: float
    kind: str | None  # symmetric chain kind, or None for chain_at_phase


@dataclass(frozen=True)
class FeasibilityOp:
    radii: tuple[float, float, float, float]
    mode: str
    feasible: bool  # label: is this ordered quadruple a 4-chain in this mode
    group: str


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]  # arguments starting with "@" name files in the session directory
    expect: int  # exit code
    check: str  # which output the checker reads
    artefact: str | None
    n: int
    R: float
    r: float
    d: float
    samples: int = 0
    reads: str | None = None  # the chain file whose circles the moments are checked against
    complex: bool = False  # invariants --complex: J lines expected


SWEEP_STRATA = {4: 12, 8: 12, 16: 4, 32: 1}  # ops per pass; p50 falls inside n=8, p90 inside n=16
SWEEP_SAMPLES = 100
SWEEP_MAX_RATIO = 1e3
CONSTRUCT_PASS = 64
CONSTRUCT_MAX_RATIO = 1e2
FEASIBILITY_QUADS = 96
# The hard inputs: one fixed list, the same for every seed and workload, on
# which the library is known to fail today. They are run after the timed
# passes and reported as hard_ok_share, not as failed operations.
HARD_SEED = "hard"
HARD_CONSTRUCT = 48
HARD_RATIO = (1e2, 1e12)  # construction error grows as (R/r)^2 eps; invert_circle raises from ~1e8 (ROADMAP item 2)
HARD_QUADS = 24  # |I3| < 1e-2: paper mode's moment-relation tolerance is absolute (ROADMAP item 3)
HARD_SCALE = (10.0, 1e3)
CLI_ORDERS = (3, 4, 5, 6)
CLI_SWEEP_SAMPLES = 24
ABOVE_BOUNDARY = 1.0 + 1e-3  # "just above the closure boundary"


def _strata(rng: random.Random, m: int) -> list[float]:
    """m points of [0, 1), one in each of m equal strata."""
    return [(i + rng.random()) / m for i in range(m)]


def _log_between(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _gauge(n: int, R: float) -> tuple[int, float, float, float]:
    return n, R, 1.0, pedoe_distance(n, R, 1.0)


def sweep_pass(rng: random.Random) -> list[SweepOp]:
    ops = []
    for n, m in SWEEP_STRATA.items():
        for u in _strata(rng, m):
            R = _log_between(closure_ratio(n) * ABOVE_BOUNDARY, SWEEP_MAX_RATIO, u)
            ops.append(SweepOp(*_gauge(n, R), SWEEP_SAMPLES, rng.uniform(0.0, 2.0 * math.pi / n)))
    rng.shuffle(ops)
    return ops


def _construct_ops(rng: random.Random, count: int, lo: float | None, hi: float) -> list[ConstructOp]:
    """count chains with n stratified over 3..64 and R/r log-stratified from
    lo (None: just above each n's closure boundary) to hi."""
    orders = [3 + int(u * 62) for u in _strata(rng, count)]
    rng.shuffle(orders)
    ratios = _strata(rng, count)
    rng.shuffle(ratios)
    ops = []
    for i, (n, u) in enumerate(zip(orders, ratios)):
        R = _log_between(closure_ratio(n) * ABOVE_BOUNDARY if lo is None else lo, hi, u)
        kind = None
        if i % 8 == 1:  # one op in eight builds a symmetric chain
            choices = ("axial-max", "axial-min") if n % 2 else ("axial", "lateral")
            kind = rng.choice(choices)
        ops.append(ConstructOp(*_gauge(n, R), rng.uniform(0.0, 2.0 * math.pi), kind))
    rng.shuffle(ops)
    return ops


def construct_pass(rng: random.Random) -> list[ConstructOp]:
    return _construct_ops(rng, CONSTRUCT_PASS, None, CONSTRUCT_MAX_RATIO)


def _rounded(values) -> tuple[float, ...]:
    return tuple(float(f"{v:.12g}") for v in values)


def _generic_chain(rng: random.Random) -> tuple[float, ...]:
    """Decimal-rounded radii of a 4-chain whose radii are far from symmetric.

    Phases near 0, pi/4 and pi/2 make two radii (nearly) equal, and then a
    permutation can coincide with a rotation or reflection of the chain.
    """
    R = _log_between(6.5, 1e3, rng.random())
    theta = rng.uniform(0.1, 0.4) * math.pi / 2.0
    if rng.random() < 0.5:
        theta = math.pi / 2.0 - theta
    return _rounded(four_chain_radii(R, 1.0, theta))


def _dihedral(quad) -> list[tuple[float, ...]]:
    rots = [tuple(quad[i:] + quad[:i]) for i in range(4)]
    return rots + [tuple(reversed(q)) for q in rots]


def _far_from_chain(quad) -> bool:
    """The moment relation misses by far more than decimal rounding could."""
    return third_moment_residual(quad) > 1e-4


def _small_bends(quad) -> bool:
    """|I3| < 1, where paper mode's absolute relation tolerance is loose;
    such quadruples belong to the hard inputs, not to a timed pass."""
    return sum(1.0 / v**3 for v in quad) < 1.0


def feasibility_pass(rng: random.Random) -> list[FeasibilityOp]:
    third = FEASIBILITY_QUADS // 3
    quads: list[tuple[tuple[float, ...], bool, bool, str]] = []  # (radii, paper, constructive, group)
    for _ in range(third):
        quad = rng.choice(_dihedral(list(_generic_chain(rng))))
        quads.append((quad, True, True, "chain"))
    for _ in range(third):
        quad = list(_generic_chain(rng))
        i = rng.choice((1, 2))  # swap positions i and i + 1: not a rotation or reflection
        quad[i], quad[i + 1] = quad[i + 1], quad[i]
        quads.append((tuple(quad), True, False, "permuted"))
    while len(quads) < FEASIBILITY_QUADS:
        if len(quads) % 2:
            quad = list(_generic_chain(rng))
            quad[rng.randrange(4)] *= 1.0 + rng.choice((-1.0, 1.0)) * _log_between(1e-3, 1e-1, rng.random())
            group = "perturbed"
        else:
            quad = [_log_between(0.05, 20.0, rng.random()) for _ in range(4)]
            group = "random"
        quad = _rounded(quad)
        if _far_from_chain(quad) and not _small_bends(quad):
            quads.append((quad, False, False, group))
    return _both_modes(rng, quads)


def _both_modes(rng: random.Random, quads) -> list[FeasibilityOp]:
    ops = [
        FeasibilityOp(quad, mode, label, group)
        for quad, paper, constructive, group in quads
        for mode, label in (("paper", paper), ("constructive", constructive))
    ]
    rng.shuffle(ops)
    return ops


def hard_inputs() -> list:
    """The fixed list of inputs the library is known to fail on today:
    chains at R/r from 1e2 to 1e12, and 4-chain radii scaled up 10-1000x
    (so |I3| < 1e-2) with one radius moved by 0.1-1%, which paper mode
    accepts although the moment relation misses by more than 1e-4."""
    rng = random.Random(HARD_SEED)
    quads = []
    while len(quads) < HARD_QUADS:
        scale = _log_between(*HARD_SCALE, rng.random())
        quad = [v * scale for v in _generic_chain(rng)]
        quad[rng.randrange(4)] *= 1.0 + rng.choice((-1.0, 1.0)) * _log_between(1e-3, 1e-2, rng.random())
        quad = _rounded(quad)
        if _far_from_chain(quad):
            quads.append((quad, False, False, "scaled-perturbed"))
    return _construct_ops(rng, HARD_CONSTRUCT, HARD_RATIO[0], HARD_RATIO[1]) + _both_modes(rng, quads)


def _cli_session(rng: random.Random, n: int) -> list[CliOp]:
    R = _log_between(closure_ratio(n) * ABOVE_BOUNDARY, closure_ratio(n) * 5.0, rng.random())
    g = _gauge(n, R)
    _, R, r, d = g
    args = ("--n", str(n), "--R", repr(R), "--r", repr(r))
    full = args + ("--d", repr(d))
    kinds = ("axial-max", "axial-min") if n % 2 else ("axial", "lateral")
    quad = list(_generic_chain(rng))
    feasible = rng.random() < 0.5
    if not feasible:
        quad[1], quad[2] = quad[2], quad[1]
    mode = "constructive"
    if feasible and rng.random() < 0.5:
        mode = "paper"
    radii = ",".join(repr(v) for v in quad)
    complex_ = rng.random() < 0.5
    return [
        CliOp(("gauge",) + args, 0, "distance", None, *g),
        CliOp(("gauge",) + args + ("--d", repr(d * 1.1 + 0.1)), 1, "none", None, *g),
        CliOp(("gauge", "--n", str(n), "--R", "1.0", "--r", "2.0"), 2, "none", None, *g),
        CliOp(("chain",) + full + ("--phase", repr(rng.uniform(0, 2 * math.pi)), "--out", "@chain.json"), 0, "chain", "chain.json", *g),
        CliOp(("invariants", "--chain", "@chain.json") + (("--complex",) if complex_ else ()), 0, "invariants", None, *g, reads="chain.json", complex=complex_),
        CliOp(("render", "--chain", "@chain.json", "--svg", "@chain.svg"), 0, "svg", "chain.svg", *g),
        CliOp(("sweep",) + full + ("--samples", str(CLI_SWEEP_SAMPLES), "--csv", "@sweep.csv"), 0, "csv", "sweep.csv", *g, CLI_SWEEP_SAMPLES, reads="chain.json"),
        CliOp(("symmetric",) + full + ("--kind", rng.choice(kinds), "--out", "@symmetric.json"), 0, "symmetric", None, *g),
        CliOp(("invariants", "--chain", "@symmetric.json"), 0, "invariants", None, *g, reads="symmetric.json"),
        CliOp(("feasible", "--radii", radii, "--mode", mode), 0 if feasible else 1, "none", None, *g),
    ]


def cli_pass(rng: random.Random) -> list[CliOp]:
    """One session per chain order; calls within a session keep their order,
    because later ones read the files earlier ones wrote."""
    return [op for n in CLI_ORDERS for op in _cli_session(rng, n)]


PASSES = {
    "sweep": sweep_pass,
    "construct": construct_pass,
    "feasibility": feasibility_pass,
    "cli": cli_pass,
}


def make_pass(workload: str, seed: int, index: int) -> list:
    return PASSES[workload](random.Random(f"{workload}:{seed}:{index}"))


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the seeded inputs of a workload's first pass.")
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps({"workload": args.workload, "why": why(args.workload), "stresses": STRESSES[args.workload]}))
    for op in make_pass(args.workload, args.seed, 0):
        print(json.dumps(dataclasses.asdict(op)))


if __name__ == "__main__":
    main()
