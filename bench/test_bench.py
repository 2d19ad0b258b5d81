"""Tests of the benchmark's own parts: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker
import steinerchains as sc
from array import array

from compare import common_failures, report, verdict
from generate import CONSTRUCT_MAX_RATIO, PASSES, CliOp, ConstructOp, FeasibilityOp, hard_inputs, make_pass, why
from run import REFERENCE_S, Tally, tail_percentile
from tracing import Tracer, self_times


def _circles(chain):
    return [(c.center.x, c.center.y, c.radius) for c in chain.circles]


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_generator_is_deterministic_per_seed(workload):
    assert make_pass(workload, 7, 3) == make_pass(workload, 7, 3)
    assert make_pass(workload, 7, 3) != make_pass(workload, 8, 3)
    assert make_pass(workload, 7, 3) != make_pass(workload, 7, 4)
    assert why(workload)


def test_hard_inputs_are_fixed_and_kept_out_of_the_timed_passes():
    hard = hard_inputs()
    assert hard == hard_inputs()
    assert {type(op) for op in hard} == {ConstructOp, FeasibilityOp}
    for index in range(5):
        assert all(op.R / op.r <= CONSTRUCT_MAX_RATIO for op in make_pass("construct", 7, index))
        off_chain = [op for op in make_pass("feasibility", 7, index) if op.group in ("perturbed", "random")]
        assert off_chain and all(sum(1.0 / v**3 for v in op.radii) >= 1.0 for op in off_chain)


@pytest.mark.parametrize("n, R, r, d", [(3, 15.0, 1.0, 4.0), (4, 6.0, 1.0, 1.0)])
def test_checker_accepts_textbook_gauges(n, R, r, d):
    g = sc.Gauge(n, R, r, d)
    for phase in (0.0, 0.3, math.pi / n, 1.0):
        assert checker.chain_failure(_circles(sc.chain_at_phase(g, phase)), n, R, r, d) is None
    report = sc.invariance_sweep(g, 20)
    assert checker.sweep_failure(n, R, r, 20, report, _circles(sc.chain_at_phase(g, 0.2))) is None


def _sweep(n, R, r, d, samples=20):
    g = sc.Gauge(n, R, r, d)
    return sc.invariance_sweep(g, samples), sc.chain_at_phase(g, 0.2)


def test_checker_rejects_a_sweep_with_no_negative_control():
    report, chain = _sweep(4, 6.0, 1.0, 1.0)
    deviation = {**report.bending_deviation, 4: 0.0}
    flat = dataclasses.replace(report, bending_deviation=deviation, negative_control=0.0)
    assert checker.sweep_failure(4, 6.0, 1.0, 20, flat, _circles(chain)) == "I_n span differs from the non-invariant's 2|A|"
    imaginary = dataclasses.replace(report, max_imag=1e-3)
    assert checker.sweep_failure(4, 6.0, 1.0, 20, imaginary, _circles(chain)) == "an invariant J_k,m is not real"


@pytest.mark.parametrize("n, R, discerning", [(3, 15.0, True), (8, 40.0, True), (16, 500.0, False)])
def test_negative_control_matches_the_library_sweep(n, R, discerning):
    # At n = 16 the span of I_n is 7e-9 of I_n, inside the 1e-9 slack's reach.
    d = checker.pedoe_distance(n, R, 1.0)
    report, _ = _sweep(n, R, 1.0, d, 100)
    assert checker.negative_control_failure(n, R, 1.0, 100, report.negative_control) is None
    off = checker.negative_control_failure(n, R, 1.0, 100, report.negative_control * 1.01)
    assert (off is not None) == discerning


def test_checker_rejects_wrong_moment_values():
    chain = sc.chain_at_phase(sc.Gauge(4, 6.0, 1.0, 1.0), 0.3)
    circles = _circles(chain)
    bending = {k: sc.bending_moment(chain, k) for k in range(1, 5)}
    values = {(k, m): sc.complex_moment(chain, k, m) for k in range(4) for m in range(k + 1)}
    assert checker.moment_values_failure(circles, 4, bending, values) is None
    zeros = {pair: 0j for pair in values}
    assert checker.moment_values_failure(circles, 4, bending, zeros) == "J_k,m differs from the sum over the chain"
    assert checker.moment_values_failure(circles, 4, {**bending, 3: 0.0}, values) == "I_k differs from the sum over the chain"


def test_checker_reads_invariants_and_sweep_csv(tmp_path):
    import steinerchains.cli

    args = ("--n", "3", "--R", "15.0", "--r", "1.0", "--d", "4.0")
    steinerchains.cli.main(["chain", *args, "--phase", "0.7", "--out", str(tmp_path / "chain.json")])
    steinerchains.cli.main(["sweep", *args, "--samples", "12", "--csv", str(tmp_path / "sweep.csv")])
    files = {name: (tmp_path / name).read_bytes() for name in ("chain.json", "sweep.csv")}
    doc = checker.json.loads(files["chain.json"])
    circles = checker._document_circles(doc)
    text = files["sweep.csv"].decode()
    assert checker.sweep_csv_failure(text, 3, 15.0, 1.0, 12, circles) is None
    lines = text.splitlines()
    row = lines[1].split(",")
    lines[1] = ",".join(row[:5] + ["0.0"] * (len(row) - 5))  # every J zero in one row
    assert checker.sweep_csv_failure("\n".join(lines), 3, 15.0, 1.0, 12, circles) == "csv J_k,m differs from the sum over the chain"

    op = CliOp(("invariants",), 0, "invariants", None, 3, 15.0, 1.0, 4.0, reads="chain.json", complex=True)
    b = [1.0 / c[2] for c in circles]
    z = [complex(c[0], c[1]) for c in circles]
    printed = [f"I{k} = {sum(x**k for x in b)!r}" for k in range(1, 4)]
    for k in range(3):
        for m in range(k + 1):
            v = sum(x**k * w**m for x, w in zip(b, z))
            printed.append(f"J{k},{m} = {v.real!r} (imag {v.imag!r})")
    assert checker.cli_failure(op, 0, "\n".join(printed), files) is None
    printed[-1] = "J2,2 = 0.0 (imag 0.0)"
    assert checker.cli_failure(op, 0, "\n".join(printed), files) == "J_k,m differs from the sum over the chain"


def test_checker_rejects_a_nudged_radius():
    g = sc.Gauge(4, 6.0, 1.0, 1.0)
    circles = _circles(sc.chain_at_phase(g, 0.3))
    x, y, rho = circles[2]
    circles[2] = (x, y, rho * (1.0 + 1e-6))
    assert checker.chain_failure(circles, 4, 6.0, 1.0, 1.0) == "adjacent tangency off"


def test_contact_gap_is_exact_for_integer_circles():
    assert checker.contact_gap((0.0, 0.0, 1.0), (3.0, 4.0, 4.0)) == 0.0
    assert checker.contact_gap((0.0, 0.0, 10.0), (3.0, 4.0, 5.0), internal=True) == 0.0
    assert checker.contact_gap((0.0, 0.0, 1.0), (3.0, 4.0, 3.0)) == pytest.approx(1.0)  # gap 1 over radius 1


def test_self_time_subtracts_the_union_of_children():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6] (overlapping) and 3 [9, 12]
    # (clipped at 10); 1 has child 4 [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 3.0, 1.0]


def test_traced_calls_are_counted_at_the_callers_binding():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.span("op", sc.chain_at_phase, sc.Gauge(4, 6.0, 1.0, 1.0), 0.3)
        tracer.active = False
        sc.chain_at_phase(sc.Gauge(4, 6.0, 1.0, 1.0), 0.3)  # inactive: not recorded
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["porism.chain_at_phase"]["calls"] == 1
    assert summary["geometry.invert_circle"]["calls"] == 4 + 2  # ring circles, then both parents
    assert len(tracer.keys["porism.concentric_model"]) == 1
    assert sc.chain_at_phase is sc.porism.chain_at_phase


def test_times_are_scaled_by_the_kernel_around_their_block():
    tally = Tally()
    tally.latency = array("d", [1.0, 2.0, 3.0])
    tally.block_end = [2, 3]
    tally.kernel = [1.0, 3.0, 2.0]  # before block 0, between, after block 1
    f0, f1 = REFERENCE_S / 2.0, REFERENCE_S / 2.5
    assert list(tally.scaled()) == pytest.approx([1.0 * f0, 2.0 * f0, 3.0 * f1])


@pytest.mark.parametrize("count, p", [(15, 50.0), (40, 75.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10**6, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(count, p):
    assert tail_percentile(count) == p


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "higher", "better"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "higher", "worse"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "lower", "better"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [101, 100, 100, 99, 101, 99, 100, 102, 98, 100], "higher", "within bound"),
        ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [95, 105, 100, 98, 102, 100, 97, 103, 99, 101], "higher", "unresolved"),
        ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [150, 155, 160, 151, 152, 153, 154, 156, 157, 158], "higher", "better"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, 0.1, 5, 5) == expected


def test_compare_needs_ten_pairs_for_a_gain():
    assert verdict([100, 101, 99], [120, 121, 119], "higher", 0.1, 0, 0) == "within bound"


def test_compare_counts_no_gain_that_fails_more():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [120, 121, 119, 120, 122, 118, 120, 121, 119, 120]
    assert verdict(parent, change, "higher", 0.1, 5, 6) == "within bound"


def test_compare_counts_failures_on_the_passes_both_sides_ran():
    sides = {
        "parent": [{"failed_per_pass": [1, 2, 3]}, {"failed_per_pass": [4]}],
        "change": [{"failed_per_pass": [1, 2, 3, 4, 5]}, {"failed_per_pass": [0, 9]}],
    }
    assert common_failures(sides) == {"parent": 10, "change": 6}


def test_compare_report_has_a_row_per_workload_and_metric():
    spec = {"end_to_end": [{"name": "latency_ms", "better": "lower", "bound": 0.1}]}

    def run(value, failed):
        return {"metrics": {"latency_ms": {"value": value}}, "failed": failed, "attempted": 100, "failed_per_pass": [failed]}

    runs = {"w": {"parent": [run(10.0, 1), run(11.0, 1)], "change": [run(10.5, 1), run(10.4, 1)]}}
    lines = report(runs, spec)
    assert len(lines) == 4
    assert lines[1].split()[:2] == ["w", "latency_ms"]
    assert lines[1].endswith(verdict([10.0, 11.0], [10.5, 10.4], "lower", 0.1, 1, 1))
