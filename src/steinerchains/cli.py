"""Command-line front end.

Exit codes: 0 on success (valid gauge / feasible quadruple / artifact
written); 1 when a verdict is negative (no closed chain exists, quadruple
infeasible, invariance violation in a sweep); 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import _EXPORTS, _lazy
from .porism import (
    MAX_CHAIN_LENGTH,
    Gauge,
    InfeasibleGaugeError,
    chain_at_phase,
    pedoe_distance,
    poristic_range,
    validate_gauge,
)

# Each package name loads with its module when a command that calls it first
# runs (see main); it is then a global of this module, the binding
# bench/tracing.py wraps.
__getattr__ = _lazy(globals(), _EXPORTS)

_KINDS = ("axial-max", "axial-min", "axial", "lateral")  # SymmetricChainKind values


def _finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are invalid input."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_gauge_args(p: argparse.ArgumentParser, with_d: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help=f"chain length (3 to {MAX_CHAIN_LENGTH})")
    p.add_argument("--R", type=_finite_float, required=True, help="outer parent radius")
    p.add_argument("--r", type=_finite_float, required=True, help="inner parent radius")
    if with_d:
        p.add_argument("--d", type=_finite_float, required=True, help="center distance")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every later main() call; nothing may
    change it afterwards, so each call parses against the same defaults."""
    parser = argparse.ArgumentParser(
        prog="steiner",
        description="Construct tangent-circle chains, verify their moment "
        "invariants, and decide radius feasibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauge", help="validate (R, r, d) or derive d from (n, R, r)")
    _add_gauge_args(p, with_d=False)
    p.add_argument("--d", type=_finite_float, default=None, help="center distance (omit to derive)")

    p = sub.add_parser("chain", help="build the chain at a phase and write it as JSON")
    _add_gauge_args(p)
    p.add_argument("--phase", type=_finite_float, required=True)
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("invariants", help="print moments of a stored chain")
    p.add_argument("--chain", required=True, help="chain JSON path")
    p.add_argument("--max-k", type=int, default=None, help="highest I_k to print (>= 1)")
    p.add_argument("--complex", action="store_true", help="also print complex moments")

    p = sub.add_parser("sweep", help="write a per-phase moment table as CSV")
    _add_gauge_args(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument(
        "--tol",
        type=_finite_float,
        default=1e-8,
        help="deviation above which an invariant counts as violated",
    )

    p = sub.add_parser("symmetric", help="build an axial or lateral chain")
    _add_gauge_args(p)
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("feasible", help="decide an ordered radius quadruple")
    p.add_argument("--radii", required=True, help="four comma-separated radii")
    p.add_argument("--mode", choices=["paper", "constructive"], default="paper")

    p = sub.add_parser("render", help="draw a stored chain as SVG")
    p.add_argument("--chain", required=True, help="chain JSON path")
    p.add_argument("--svg", required=True, help="output SVG path")

    return parser


def _validated_gauge(args: argparse.Namespace) -> Gauge:
    g = Gauge(args.n, args.R, args.r, args.d)
    check = validate_gauge(g)
    if not check.ok:
        raise ValueError(check.message)
    return g


def _cmd_gauge(args: argparse.Namespace) -> int:
    if args.d is None:
        d = pedoe_distance(args.n, args.R, args.r)
        g = Gauge(args.n, args.R, args.r, d)
        head = f"d = {d!r}"
    else:
        g = Gauge(args.n, args.R, args.r, args.d)
        check = validate_gauge(g)
        if not check.ok:
            print(f"violation: {check.message}")
            return 1
        head = f"ok (closure residual {check.pedoe_residual!r})"
    rng = poristic_range(g)
    if rng.r_min < 0.0:  # the float d has reached R - r, as it does past R/r of about 1e16
        raise ValueError(
            f"r_min = {rng.r_min!r} is negative: d = {g.d!r} is not below R - r in floats, "
            f"so the radius range of (R, r) = ({g.R!r}, {g.r!r}) is lost to rounding"
        )
    print(head)
    print(f"radius range: [{rng.r_min!r}, {rng.r_max!r}]")
    print(f"bend range: [{rng.b_min!r}, {rng.b_max!r}]")
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    g = _validated_gauge(args)
    chain = chain_at_phase(g, args.phase)
    save_chain(chain, args.out)
    print(f"wrote {args.out} ({g.n} circles, phase {chain.phase!r})")
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    moments = moment_set(load_chain(args.chain), args.max_k)
    lines = [f"I{k} = {v!r}" for k, v in enumerate(moments.bending, start=1)]
    values = list(moments.bending)
    if getattr(args, "complex"):
        lines += [
            f"J{k},{m} = {v.real!r} (imag {v.imag!r})" for (k, m), v in moments.complex_map.items()
        ]
        values += moments.complex_map.values()
    document.require_finite("moment overflows the float range", values, lines.__getitem__)
    for line in lines:
        print(line)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.tol < 0.0:
        raise ValueError(f"--tol must be non-negative, got {args.tol!r}")
    g = _validated_gauge(args)
    report = write_sweep_csv(g, args.samples, args.csv)
    for k in range(1, g.n + 1):
        tag = "invariant" if k < g.n else "not invariant"
        print(f"I{k} deviation = {report.bending_deviation[k]:.3e} ({tag})")
    worst = max(report.complex_deviation.values())
    print(f"worst complex-moment deviation = {worst:.3e}")
    print(f"max |Im J| = {report.max_imag:.3e}")
    print(f"wrote {args.csv}")
    if not report.invariants_ok(args.tol):
        print("invariance violation detected", file=sys.stderr)
        return 1
    return 0


def _cmd_symmetric(args: argparse.Namespace) -> int:
    g = _validated_gauge(args)
    chain = symmetric_chain(g, args.kind)
    import json  # only this command prints JSON; the others start without it

    print(json.dumps(chain_to_document(chain), indent=2))
    if args.out:
        save_chain(chain, args.out)
    return 0


def _cmd_feasible(args: argparse.Namespace) -> int:
    quad = tuple(float(v) for v in args.radii.split(","))
    report = feasibility_check(quad, mode=args.mode)
    I1, I2, I3 = report.actual_moments
    print(f"radii: {report.radii}")
    print(f"mode: {report.mode}")
    print(f"actual moments: I1={I1!r} I2={I2!r} I3={I3!r}")
    if report.virtual_curvatures:
        a, A = report.virtual_curvatures
        print(f"virtual curvatures: a={a!r} A={A!r}")
    if report.virtual_gauge:
        R, r, d = report.virtual_gauge
        print(f"virtual gauge: R={R!r} r={r!r} d={d!r}")
    if report.range_check is not None:
        print(f"range check: {list(report.range_check)}")
    print(f"relation residual: {report.relation_residual!r}")
    if report.adjacency_check is not None:
        print(f"adjacency check: {list(report.adjacency_check)}")
    print(f"verdict: {'feasible' if report.feasible else 'infeasible'}")
    for reason in report.reasons:
        print(f"  - {reason}")
    return 0 if report.feasible else 1


def _cmd_render(args: argparse.Namespace) -> int:
    chain = load_chain(args.chain)
    svg = render_svg(chain)
    with open(args.svg, "wb") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}")
    return 0


# command: (function, the modules whose names it calls)
_COMMANDS = {
    "gauge": (_cmd_gauge, ()),
    "chain": (_cmd_chain, ("document",)),
    "invariants": (_cmd_invariants, ("document", "moments")),
    "sweep": (_cmd_sweep, ("document", "moments")),
    "symmetric": (_cmd_symmetric, ("document", "symmetric")),
    "feasible": (_cmd_feasible, ("feasibility",)),
    "render": (_cmd_render, ("document",)),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, modules = _COMMANDS[args.command]
    for module in modules:
        if module not in globals():
            __getattr__(module)
    try:
        return command(args)
    except InfeasibleGaugeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
