"""JSON chain documents, CSV moment sweeps, and static SVG figures.

Numbers are serialized as the shortest decimal that round-trips the exact
double, so written artifacts are reproducible bit for bit across platforms.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from .geometry import checked_radius
from .moments import InvarianceReport, _fold_spans, _sweep_blocks, require_finite, sweep_header
from .moments import sweep_rows  # noqa: F401  (a binding bench/tracing.py wraps)
from .porism import Gauge, SteinerChain, chain_residuals


def chain_to_document(chain: SteinerChain) -> dict:
    g = chain.gauge
    return {
        "gauge": {"n": g.n, "R": g.R, "r": g.r, "d": g.d},
        "phase": chain.phase,
        "circles": [{"x": x, "y": y, "radius": rho} for x, y, rho in chain.rows],
    }


def _document_field(i: int) -> str:
    """Where the i-th number that document_to_chain checks sits in the document."""
    if i < 4:
        return ("gauge.R", "gauge.r", "gauge.d", "phase")[i]
    return f"circles[{(i - 4) // 3}].{('x', 'y', 'radius')[(i - 4) % 3]}"


def document_to_chain(doc: dict) -> SteinerChain:
    """Rebuild a chain from its document form, revalidating its tangencies."""
    try:
        gauge = doc["gauge"]
        n = gauge["n"]
        head = (float(gauge["R"]), float(gauge["r"]), float(gauge["d"]), float(doc["phase"]))
        rows = [(float(c["x"]), float(c["y"]), float(c["radius"])) for c in doc["circles"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chain document: {exc}") from exc
    if type(n) is not int:  # a JSON integer: not a float, string or bool
        raise ValueError(f"chain document: gauge.n must be an integer, got {n!r}")
    numbers = [*head, *itertools.chain.from_iterable(rows)]
    require_finite("non-finite number in chain document", numbers, _document_field)
    R, r, d, phase = head
    g = Gauge(n, R, r, d)
    for _, _, radius in rows:
        checked_radius(radius)
    if len(rows) != g.n:
        raise ValueError(f"document lists {len(rows)} circles for an n={g.n} gauge")
    chain = SteinerChain(g, phase, tuple(rows))
    res = chain_residuals(chain)
    if not res.ok:
        raise ValueError(
            "chain document fails revalidation: residuals "
            f"adjacent={res.adjacent:.3g} inner={res.inner:.3g} "
            f"outer={res.outer:.3g} range={res.range_excess:.3g}"
        )
    return chain


def _chain_json(chain: SteinerChain) -> str:
    """The text save_chain writes and `steiner symmetric` prints."""
    return json.dumps(chain_to_document(chain), indent=2) + "\n"


def save_chain(chain: SteinerChain, path: str | Path) -> None:
    Path(path).write_text(_chain_json(chain))


def load_chain(path: str | Path) -> SteinerChain:
    return document_to_chain(json.loads(Path(path).read_text()))


def _sweep_csv(g: Gauge, samples: int) -> tuple[InvarianceReport, str]:
    """The report of invariance_sweep and the sweep's CSV text: one line per
    phase, shortest round-trip decimals. Each block of rows is folded, then
    formatted, and no table is held. A moment that overflowed the float
    range raises ValueError naming its column."""
    lines = [",".join(sweep_header(g.n))]

    def formatted(blocks):
        for rows in blocks:
            yield rows
            lines.extend(",".join(map(repr, row)) for row in rows)

    report = _fold_spans(g.n, formatted(_sweep_blocks(g, samples)))
    return report, "\n".join(lines) + "\n"


def sweep_csv_text(g: Gauge, samples: int) -> str:
    """Moment sweep as CSV text (see _sweep_csv)."""
    return _sweep_csv(g, samples)[1]


def write_sweep_csv(g: Gauge, samples: int, path: str | Path) -> InvarianceReport:
    """Write the moment sweep as CSV and return its report; nothing is
    written when _sweep_csv refuses the sweep."""
    report, text = _sweep_csv(g, samples)
    Path(path).write_text(text)
    return report


def render_svg(chain: SteinerChain) -> bytes:
    """Stroked-circle figure of the chain and its parents.

    The viewBox is the outer parent's bounding box padded by 5%; the y-axis
    is flipped so the figure appears in mathematical orientation. Output is
    deterministic for identical input.
    """
    g = chain.gauge
    half = g.R * 1.05
    x0 = g.d - half
    y0 = -half
    stroke = g.R / 200.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0!r} {y0!r} {2 * half!r} {2 * half!r}">',
        f'<g fill="none" stroke-width="{stroke!r}">',
    ]

    def circle(x: float, y: float, radius: float, color: str) -> str:
        cy = -y + 0.0  # avoid repr of negative zero
        return f'<circle cx="{x!r}" cy="{cy!r}" r="{radius!r}" stroke="{color}"/>'

    parts.append(circle(g.d, 0.0, g.R, "#303030"))  # the parents
    parts.append(circle(0.0, 0.0, g.r, "#909090"))
    for x, y, radius in chain.rows:
        parts.append(circle(x, y, radius, "#1f6fb4"))
    parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
