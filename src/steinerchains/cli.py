"""Command-line front end.

Exit codes: 0 on success (valid gauge / feasible quadruple / artifact
written); 1 when a verdict is negative (no closed chain exists, quadruple
infeasible, invariance violation in a sweep); 2 on invalid input.
"""

from __future__ import annotations

import functools
import math
import sys
import types

from . import _EXPORTS, _lazy
from .porism import (
    MAX_CHAIN_LENGTH,
    MAX_MOMENT_ORDER,
    MAX_SWEEP_SAMPLES,
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


def _finite_float(text: str) -> float:
    """Converter of every float option: NaN and infinities are invalid input."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _validated_gauge(args: types.SimpleNamespace) -> Gauge:
    g = Gauge(args.n, args.R, args.r, args.d)
    check = validate_gauge(g)
    if not check.ok:
        raise ValueError(check.message)
    return g


def _cmd_gauge(args: types.SimpleNamespace) -> int:
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


def _cmd_chain(args: types.SimpleNamespace) -> int:
    g = _validated_gauge(args)
    chain = chain_at_phase(g, args.phase)
    save_chain(chain, args.out)
    print(f"wrote {args.out} ({g.n} circles, phase {chain.phase!r})")
    return 0


def _cmd_invariants(args: types.SimpleNamespace) -> int:
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


def _cmd_sweep(args: types.SimpleNamespace) -> int:
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


def _cmd_symmetric(args: types.SimpleNamespace) -> int:
    g = _validated_gauge(args)
    text = document._chain_json(symmetric_chain(g, args.kind))
    print(text, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _cmd_feasible(args: types.SimpleNamespace) -> int:
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


def _cmd_render(args: types.SimpleNamespace) -> int:
    chain = load_chain(args.chain)
    svg = render_svg(chain)
    with open(args.svg, "wb") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}")
    return 0


_REQUIRED = object()  # the default of an option that must be given
_N_R_r = (("n", int, _REQUIRED, f"chain length (3 to {MAX_CHAIN_LENGTH})"),
          ("R", _finite_float, _REQUIRED, "outer parent radius"),
          ("r", _finite_float, _REQUIRED, "inner parent radius"))
_GAUGE = (*_N_R_r, ("d", _finite_float, _REQUIRED, "center distance"))
_KINDS = ("axial", "axial-max", "axial-min", "lateral")  # SymmetricChainKind values

# command: (function, the modules whose names it calls, help, options); an option is (name,
# converter, default, help), where the converter bool makes a flag and a tuple lists the choices.
_COMMANDS = {
    "gauge": (_cmd_gauge, (), "validate (R, r, d) or derive d from (n, R, r)", (
        *_N_R_r, ("d", _finite_float, None, "center distance (omit to derive)"))),
    "chain": (_cmd_chain, ("document",), "build the chain at a phase and write it as JSON", (
        *_GAUGE, ("phase", _finite_float, _REQUIRED, "phase angle in the concentric model"),
        ("out", str, _REQUIRED, "output JSON path"))),
    "invariants": (_cmd_invariants, ("document", "moments"), "print moments of a stored chain", (
        ("chain", str, _REQUIRED, "chain JSON path"),
        ("max-k", int, None, f"highest I_k to print (1 to {MAX_MOMENT_ORDER})"),
        ("complex", bool, False, "also print complex moments"))),
    "sweep": (_cmd_sweep, ("document", "moments"), "write a per-phase moment table as CSV", (
        *_GAUGE, ("samples", int, _REQUIRED, f"number of phases (2 to {MAX_SWEEP_SAMPLES})"),
        ("csv", str, _REQUIRED, "output CSV path"),
        ("tol", _finite_float, 1e-8, "deviation above which an invariant counts as violated"))),
    "symmetric": (_cmd_symmetric, ("document", "symmetric"), "build an axial or lateral chain", (
        *_GAUGE, ("kind", _KINDS, _REQUIRED, "which symmetric chain"),
        ("out", str, None, "optional JSON output path"))),
    "feasible": (_cmd_feasible, ("feasibility",), "decide an ordered radius quadruple", (
        ("radii", str, _REQUIRED, "four comma-separated radii"),
        ("mode", ("paper", "constructive"), "paper", "paper (order-blind) or constructive (ordered)"))),
    "render": (_cmd_render, ("document",), "draw a stored chain as SVG", (
        ("chain", str, _REQUIRED, "chain JSON path"), ("svg", str, _REQUIRED, "output SVG path"))),
}


class _Parser:
    """Reads argv against _COMMANDS: `--opt value` or `--opt=value`, where a value may start
    with "-"; a flag stands alone and no option is abbreviated. Input errors exit 2, help 0."""

    def __init__(self) -> None:
        # command: {"--name": (attribute, converter, default, help, usage word)}
        self.options, self.usage = {}, {None: f"usage: steiner [-h] {{{','.join(_COMMANDS)}}} ..."}
        for command, (*_, options) in _COMMANDS.items():
            table, words = self.options.setdefault(command, {}), [f"usage: steiner {command} [-h]"]
            for name, convert, default, help in options:
                attr = name.replace("-", "_")
                metavar = f"{{{','.join(convert)}}}" if isinstance(convert, tuple) else attr.upper()
                word = f"--{name}" if convert is bool else f"--{name} {metavar}"
                table[f"--{name}"] = (attr, convert, default, help, word)
                words.append(word if default is _REQUIRED else f"[{word}]")
            self.usage[command] = " ".join(words)

    def parse_args(self, argv: list[str] | None = None) -> types.SimpleNamespace:
        command, *tokens = (sys.argv[1:] if argv is None else argv) or [None]
        if command in ("-h", "--help"):
            self._help(None)
        if command not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            self._fail(None, "the following arguments are required: command" if command is None else
                       f"argument command: invalid choice: {command!r} (choose from {choices})")
        options = self.options[command]
        args = types.SimpleNamespace(command=command)
        args.__dict__.update((attr, default) for attr, _, default, *_ in options.values() if default is not _REQUIRED)
        tokens = iter(tokens)
        for token in tokens:
            if token in ("-h", "--help"):
                self._help(command)
            flag, eq, value = token.partition("=")
            if flag not in options:
                self._fail(command, f"unrecognized arguments: {token}")
            attr, convert, *_ = options[flag]
            if convert is bool:
                if eq:
                    self._fail(command, f"argument {flag}: ignored explicit argument {value!r}")
                value = True
            elif not eq and (value := next(tokens, None)) is None:
                self._fail(command, f"argument {flag}: expected one argument")
            elif isinstance(convert, tuple):
                if value not in convert:
                    choices = ", ".join(map(repr, convert))
                    self._fail(command, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
            else:
                try:
                    value = convert(value)
                except ValueError as exc:  # int's message, worded as argparse words it
                    self._fail(command, f"argument {flag}: " + (
                        str(exc) if convert is _finite_float else f"invalid int value: {value!r}"))
            setattr(args, attr, value)
        missing = [flag for flag, (attr, *_) in options.items() if not hasattr(args, attr)]
        if missing:
            self._fail(command, f"the following arguments are required: {', '.join(missing)}")
        return args

    def _help(self, command: str | None) -> None:
        if command is None:
            text = "Construct tangent-circle chains, verify their moment invariants, and decide radius feasibility."
            rows = [(name, spec[2]) for name, spec in _COMMANDS.items()]
        else:
            text, rows = _COMMANDS[command][2], [(o[4], o[3]) for o in self.options[command].values()]
        rows.insert(0, ("-h, --help", "show this help message and exit"))
        width = max(len(left) for left, _ in rows)
        print(self.usage[command], "", text, "", *(f"  {left:<{width}}  {help}" for left, help in rows), sep="\n")
        raise SystemExit(0)

    def _fail(self, command: str | None, message: str) -> None:
        prog = "steiner" if command is None else f"steiner {command}"
        print(self.usage[command], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def build_parser() -> _Parser:
    """Built on first use and shared by every later main() call, which it keeps no state of."""
    return _Parser()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, modules = _COMMANDS[args.command][:2]
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
