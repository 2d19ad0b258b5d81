"""Output checks for the benchmark, written without the library's code.

Every check here re-derives what it needs from first principles, so that a
defect in the library cannot also hide in its own check:

- tangency is judged in exact integer arithmetic on the floats the library
  returned, each residual relative to the radii of its own pair;
- sweeps are judged against the closed forms I_1 = n s and
  I_2 = (n/2)(3 s^2 + p), each invariant's span against its own size, and
  the span of the non-invariant I_n against its own closed form;
- moment values are judged against the checker's own sums over a chain;
- verdicts and exit codes are judged against the label the generator
  attached to each input.

Each check returns None when the output is right, or a short reason that
groups failures in the report.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

REL_TOL = 1e-9  # every residual below is relative to the size it judges


# --- reference geometry -------------------------------------------------


def closure_ratio(n: int) -> float:
    """Smallest R/r for which a closed n-chain exists (concentric parents)."""
    q = math.tan(math.pi / n) ** 2
    return 1.0 + 2.0 * q + 2.0 * math.sqrt(q + q * q)


def pedoe_distance(n: int, R: float, r: float) -> float:
    q = math.tan(math.pi / n) ** 2
    return math.sqrt(max((R - r) ** 2 - 4.0 * q * R * r, 0.0))


def first_two_moments(n: int, R: float, r: float) -> tuple[float, float]:
    """I_1 = n s and I_2 = (n/2)(3 s^2 + p) from the parent bends."""
    cot2 = 1.0 / math.tan(math.pi / n) ** 2
    outer, inner = -1.0 / R, 1.0 / r
    s = cot2 * (outer + inner) / 2.0
    p = cot2 * outer * inner
    return n * s, (n / 2.0) * (3.0 * s * s + p)


def chain_bends(n: int, R: float, r: float, theta: float) -> list[float]:
    """Bends of the n-chain at model angle theta, in cyclic order.

    Inversion carries the concentric model's ring of equal circles to the
    chain, and a circle's bend after inversion is affine in the cosine of
    its model angle t: b_min + (b_max - b_min) sin^2(t/2), t = theta +
    2 pi k / n, where t = 0 is the largest circle, the one in the wide gap
    of width R + d - r. b_max = 2 / (R - d - r) uses R - d - r =
    4 q R r / (R - r + d), which does not cancel.
    """
    q = math.tan(math.pi / n) ** 2
    d = pedoe_distance(n, R, r)
    b_min = 2.0 / (R + d - r)
    b_max = (R - r + d) / (2.0 * q * R * r)
    span = b_max - b_min
    return [b_min + span * math.sin((theta + 2.0 * math.pi * k / n) / 2.0) ** 2 for k in range(n)]


def four_chain_radii(R: float, r: float, theta: float) -> tuple[float, ...]:
    """Radii of the 4-chain at model angle theta, in cyclic order."""
    return tuple(1.0 / b for b in chain_bends(4, R, r, theta))


def third_moment_residual(radii) -> float:
    """|I3 - (3/4 I1 I2 - 1/8 I1^3)| / |I3|, evaluated exactly."""
    bends = [1 / Fraction(v) for v in radii]
    i1 = sum(bends)
    i2 = sum(b * b for b in bends)
    i3 = sum(b**3 for b in bends)
    return float(abs(i3 - (Fraction(3, 4) * i1 * i2 - Fraction(1, 8) * i1**3)) / abs(i3))


# --- exact tangency -----------------------------------------------------


def _scaled(values: tuple[float, ...]) -> tuple[list[int], int]:
    """The floats as integers over one common power of two, 2**k."""
    ratios = [v.as_integer_ratio() for v in values]
    k = max(den.bit_length() for _, den in ratios) - 1
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def contact_gap(c1, c2, internal: bool = False) -> float:
    """Tangency residual of two circles (x, y, radius), relative to the smaller.

    External contact means center distance D = r1 + r2; internal contact,
    with c1 enclosing c2, means D = r1 - r2. D^2 - S^2 is formed exactly;
    the gap D - S is that over D + S, then divided by the smaller radius.
    """
    (x1, y1, r1), (x2, y2, r2) = c1, c2
    if internal and not r1 > r2:
        return math.inf
    (X1, Y1, R1, X2, Y2, R2), k = _scaled((x1, y1, r1, x2, y2, r2))
    S = R1 - R2 if internal else R1 + R2
    num = (X1 - X2) ** 2 + (Y1 - Y2) ** 2 - S * S
    s = r1 - r2 if internal else r1 + r2
    gap = abs(num / (1 << (2 * k))) / (math.hypot(x1 - x2, y1 - y2) + s)
    return gap / min(r1, r2)


def chain_gaps(circles, R: float, r: float, d: float) -> tuple[float, float, float]:
    """Worst relative (adjacent, inner, outer) residuals of a chain."""
    n = len(circles)
    inner, outer = (0.0, 0.0, r), (d, 0.0, R)
    adjacent = max(contact_gap(circles[i], circles[(i + 1) % n]) for i in range(n))
    inner_gap = max(contact_gap(c, inner) for c in circles)
    outer_gap = max(contact_gap(outer, c, internal=True) for c in circles)
    return adjacent, inner_gap, outer_gap


def chain_failure(circles, n: int, R: float, r: float, d: float) -> str | None:
    """Check circles given as (x, y, radius) triples against the gauge."""
    if len(circles) != n:
        return "wrong circle count"
    if not all(math.isfinite(v) for c in circles for v in c) or min(c[2] for c in circles) <= 0.0:
        return "non-finite or non-positive circle"
    for name, gap in zip(("adjacent", "inner", "outer"), chain_gaps(circles, R, r, d)):
        if not gap <= REL_TOL:
            return f"{name} tangency off"
    return None


def document_failure(doc: dict, n: int, R: float, r: float, d: float) -> str | None:
    """Check a chain document as parsed from JSON."""
    g = doc.get("gauge", {})
    if (g.get("n"), g.get("R"), g.get("r"), g.get("d")) != (n, R, r, d):
        return "document gauge differs from input"
    return chain_failure(_document_circles(doc), n, R, r, d)


def _document_circles(doc: dict) -> list[tuple[float, float, float]]:
    return [(c["x"], c["y"], c["radius"]) for c in doc.get("circles", [])]


def svg_failure(svg: bytes, n: int) -> str | None:
    if not svg.startswith(b"<svg") or svg.count(b"<circle") != n + 2:
        return "svg does not show the chain and its parents"
    return None


# --- moments ------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def moments_failure(n: int, R: float, r: float, bends) -> str | None:
    """I_1 and I_2 of one chain against the closed forms."""
    i1, i2 = first_two_moments(n, R, r)
    if not _rel(math.fsum(bends), i1) <= REL_TOL:
        return "I_1 differs from n s"
    if not _rel(math.fsum(b * b for b in bends), i2) <= REL_TOL:
        return "I_2 differs from (n/2)(3s^2+p)"
    return None


def moment_sums(circles, n: int) -> tuple[dict, dict, dict]:
    """The checker's own I_k (k = 1..n) and J_k,m (0 <= m <= k < n) of a
    chain given as (x, y, radius) triples, and the size each is judged
    against, sum |b^k z^m|. Each term is a float product with relative
    error under (k + m + 2) eps and the sums are correctly rounded, so the
    error of a value is below 1e-13 of its size for n <= 32."""
    bends = [1.0 / c[2] for c in circles]
    centers = [complex(c[0], c[1]) for c in circles]
    bending = {k: math.fsum(b**k for b in bends) for k in range(1, n + 1)}
    values, sizes = {}, {}
    for k in range(n):
        for m in range(k + 1):
            terms = [b**k * z**m for b, z in zip(bends, centers)]
            values[(k, m)] = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            sizes[(k, m)] = math.fsum(abs(t) for t in terms)
    return bending, values, sizes


def moment_values_failure(circles, n: int, bending: dict, values: dict) -> str | None:
    """Moments the library produced against the checker's own sums over
    the same circles; `bending` maps k to I_k, `values` (k, m) to J_k,m.
    The two must cover the same moments as moment_sums, or be empty."""
    own_bending, own_values, sizes = moment_sums(circles, n)
    if bending and set(bending) != set(own_bending) or values and set(values) != set(own_values):
        return "moments missing or extra"
    for k, v in bending.items():
        if not abs(v - own_bending[k]) <= REL_TOL * own_bending[k]:
            return "I_k differs from the sum over the chain"
    for pair, v in values.items():
        if not abs(v - own_values[pair]) <= REL_TOL * sizes[pair]:
            return "J_k,m differs from the sum over the chain"
    return None


def negative_control_failure(n: int, R: float, r: float, samples: int, span: float) -> str | None:
    """I_n is not invariant: over a sweep it is c + A cos(n theta), as only
    the harmonics of its b^n terms that are multiples of n survive the sum
    over the chain. Over `samples` phases spread evenly over one period,
    whatever the first, its span lies in [2|A| cos(pi / samples), 2|A|]."""
    level = math.fsum(b**n for b in chain_bends(n, R, r, 0.0))
    a = abs(level - math.fsum(b**n for b in chain_bends(n, R, r, math.pi / n))) / 2.0
    slack = REL_TOL * level
    if not 2.0 * a * math.cos(math.pi / samples) - slack <= span <= 2.0 * a + slack:
        return "I_n span differs from the non-invariant's 2|A|"
    return None


def sweep_failure(n: int, R: float, r: float, samples: int, report, chain) -> str | None:
    """Check an invariance report; chain is one member of the same family.

    The chain supplies the size of each moment: I_k = sum b^k for the
    bending spans and sum |b^k z^m| for the complex ones.
    """
    if report.n != n or report.samples != samples:
        return "report shape differs from input"
    pairs = {(k, m) for k in range(n) for m in range(k + 1)}
    if set(report.bending_deviation) != set(range(1, n + 1)) or set(report.complex_deviation) != pairs:
        return "report shape differs from input"
    bending, _, sizes = moment_sums(chain, n)
    failure = moments_failure(n, R, r, [1.0 / c[2] for c in chain])
    if failure:
        return failure
    for k in range(1, n):
        if not report.bending_deviation[k] <= REL_TOL * bending[k]:
            return "I_k varies over the sweep"
    for pair, dev in report.complex_deviation.items():
        if not dev <= REL_TOL * sizes[pair]:
            return "J_k,m varies over the sweep"
    if not report.max_imag <= REL_TOL * max(sizes.values()):
        return "an invariant J_k,m is not real"
    if report.negative_control != report.bending_deviation[n]:
        return "negative control is not the I_n span"
    return negative_control_failure(n, R, r, samples, report.negative_control)


def sweep_csv_failure(text: str, n: int, R: float, r: float, samples: int, circles) -> str | None:
    """Check a sweep CSV: shape, I_1/I_2 per row, the invariant spans, the
    span of I_n, and every row's J_k,m against the checker's sums over
    `circles`, another chain of the same family."""
    rows = list(csv.reader(io.StringIO(text)))
    pairs = [(k, m) for k in range(n) for m in range(k + 1)]
    if len(rows) != samples + 1 or any(len(row) != 1 + n + 2 * len(pairs) for row in rows):
        return "csv shape differs from input"
    table = [[float(v) for v in row] for row in rows[1:]]
    i1, i2 = first_two_moments(n, R, r)
    for row in table:
        if not (_rel(row[1], i1) <= REL_TOL and _rel(row[2], i2) <= REL_TOL):
            return "csv I_1 or I_2 differs from the closed form"
    for k in range(1, n):
        col = [row[k] for row in table]
        if not max(col) - min(col) <= REL_TOL * max(abs(v) for v in col):
            return "csv I_k varies over the sweep"
    col = [row[n] for row in table]
    failure = negative_control_failure(n, R, r, samples, max(col) - min(col))
    if failure:
        return "csv " + failure
    base = 1 + n
    for row in table:
        values = {pair: complex(row[base + 2 * i], row[base + 2 * i + 1]) for i, pair in enumerate(pairs)}
        failure = moment_values_failure(circles, n, {}, values)
        if failure:
            return "csv " + failure
    return None


# --- verdicts -----------------------------------------------------------


def feasibility_failure(report, mode: str, feasible: bool) -> str | None:
    if report.mode != mode:
        return "report mode differs from input"
    if report.feasible != feasible:
        return f"{mode} verdict {'feasible' if report.feasible else 'infeasible'} against label"
    return None


def cli_failure(op, code: int, output: str, files: dict[str, bytes]) -> str | None:
    """Check one CLI call: its exit code, then the artefact it produced."""
    if code != op.expect:
        return f"{op.argv[0]} exit {code}, expected {op.expect}"
    n, R, r, d = op.n, op.R, op.r, op.d
    if op.check == "distance":
        line = next((ln for ln in output.splitlines() if ln.startswith("d = ")), None)
        if line is None or not abs(float(line[4:]) - d) <= REL_TOL * R:
            return "gauge printed a wrong distance"
    elif op.check == "chain":
        return document_failure(json.loads(files[op.artefact]), n, R, r, d)
    elif op.check == "symmetric":
        return document_failure(json.loads(output), n, R, r, d)
    elif op.check == "invariants":
        circles = _document_circles(json.loads(files[op.reads]))
        bending, values = {}, {}
        for line in output.splitlines():
            name, _, value = line.partition(" = ")
            if name.startswith("I"):
                bending[int(name[1:])] = float(value)
            elif name.startswith("J"):
                k, m = name[1:].split(",")
                real, imag = value.removesuffix(")").split(" (imag ")
                values[(int(k), int(m))] = complex(float(real), float(imag))
        i1, i2 = first_two_moments(n, R, r)
        if not (_rel(bending[1], i1) <= REL_TOL and _rel(bending[2], i2) <= REL_TOL):
            return "invariants printed wrong I_1 or I_2"
        if op.complex != bool(values):
            return "invariants printed J lines against --complex"
        return moment_values_failure(circles, n, bending, values)
    elif op.check == "svg":
        return svg_failure(files[op.artefact], n)
    elif op.check == "csv":
        circles = _document_circles(json.loads(files[op.reads]))
        return sweep_csv_failure(files[op.artefact].decode(), n, R, r, op.samples, circles)
    return None
