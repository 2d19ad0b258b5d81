#!/usr/bin/env python3
"""End-to-end tour of the two reference configurations.

Builds the order-3 porism with gauge (15, 1, 4) and the order-4 porism with
gauge (6, 1, 1), prints their symmetric chains, invariant moments and sweep
deviations, runs the radius feasibility examples, and renders SVG figures
into ./out/.
"""

import math
from pathlib import Path

from steinerchains import (
    Gauge,
    SymmetricChainKind,
    bending_moment,
    chain_at_phase,
    complex_moment,
    feasibility_check,
    invariance_sweep,
    poristic_range,
    render_svg,
    symmetric_chain,
)

OUT = Path("out")  # relative to the working directory


def show_gauge(g: Gauge) -> None:
    rng = poristic_range(g)
    print(f"gauge (R={g.R}, r={g.r}, d={g.d}), n={g.n}")
    print(f"  chain radii range [{rng.r_min}, {rng.r_max}]")
    kinds = (
        (SymmetricChainKind.AXIAL_MAX, SymmetricChainKind.AXIAL_MIN)
        if g.n % 2
        else (SymmetricChainKind.AXIAL_EVEN, SymmetricChainKind.LATERAL)
    )
    for kind in kinds:
        chain = symmetric_chain(g, kind)
        radii = ", ".join(f"{v:.6g}" for v in chain.radii)
        print(f"  {kind.value:9s} radii: ({radii})")
    for k in range(1, g.n):
        print(f"  I{k} = {bending_moment(chain, k):.12g}")
    j11 = complex_moment(chain, 1, 1)
    print(f"  J1,1 = {j11.real:.12g} (imag {j11.imag:.2e})")
    report = invariance_sweep(g, 100)
    worst = max(
        max(report.bending_deviation[k] for k in range(1, g.n)),
        max(report.complex_deviation.values()),
    )
    print(f"  100-phase sweep: worst invariant deviation {worst:.2e}, "
          f"I{g.n} span {report.negative_control:.3e}")


def show_feasibility(radii, mode="paper") -> None:
    rep = feasibility_check(radii, mode=mode)
    verdict = "feasible" if rep.feasible else "infeasible"
    print(f"  {radii} [{mode}]: {verdict}")
    for reason in rep.reasons:
        print(f"      {reason}")
    if rep.virtual_gauge:
        R, r, d = rep.virtual_gauge
        print(f"      virtual gauge R={R:.6g} r={r:.6g} d={d:.6g}")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    g3 = Gauge(3, 15.0, 1.0, 4.0)
    g4 = Gauge(4, 6.0, 1.0, 1.0)
    show_gauge(g3)
    print()
    show_gauge(g4)

    print("\nfeasibility:")
    show_feasibility((1.0, 2.0, 3.0, 4.0))
    show_feasibility((2.0, 2.4, 3.0, 2.4), "constructive")
    show_feasibility((2.0, 3.0, 2.4, 2.4), "paper")
    show_feasibility((2.0, 3.0, 2.4, 2.4), "constructive")

    figures = {
        "three_chain_axial.svg": chain_at_phase(g3, 0.0),
        "three_chain_generic.svg": chain_at_phase(g3, 0.35),
        "four_chain_axial.svg": chain_at_phase(g4, 0.0),
        "four_chain_lateral.svg": chain_at_phase(g4, math.pi / 4),
    }
    for name, chain in figures.items():
        (OUT / name).write_bytes(render_svg(chain))
    print(f"\nwrote {len(figures)} figures to {OUT}/")


if __name__ == "__main__":
    main()
