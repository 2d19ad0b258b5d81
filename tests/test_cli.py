import json
import math
import re
import subprocess
import sys

import pytest

from steinerchains import (
    Gauge,
    bending_moment,
    chain_at_phase,
    chain_to_document,
    document_to_chain,
    is_valid_chain,
    load_chain,
    pedoe_distance,
    render_svg,
    save_chain,
    sweep_csv_text,
)
from steinerchains.cli import _COMMANDS, build_parser, main
from steinerchains.moments import _sweep_blocks, invariance_sweep, sweep_header
from steinerchains.porism import MAX_MOMENT_ORDER, MAX_SWEEP_SAMPLES

from conftest import alarm, child_env

G3 = Gauge(3, 15.0, 1.0, 4.0)
G4 = Gauge(4, 6.0, 1.0, 1.0)
G6 = Gauge(6, 3.0, 1.0, 0.0)

# (n, R/r) where building circles by inversion at a limiting point loses the
# chain: a document that fails revalidation (1e5), a circle larger than R
# (1e8), a pole on a circle (1e12)
HIGH_RATIOS = [(3, 1e5), (3, 1e8), (16, 1e8), (64, 1e12)]


class TestChainDocuments:
    def test_round_trip_is_exact(self, tmp_path):
        chain = chain_at_phase(G4, 0.3)
        path = tmp_path / "chain.json"
        save_chain(chain, path)
        back = load_chain(path)
        assert back.gauge == chain.gauge
        assert back.phase == chain.phase
        for a, b in zip(back.circles, chain.circles):
            assert (a.center.x, a.center.y, a.radius) == (b.center.x, b.center.y, b.radius)

    def test_revalidation_rejects_tampering(self):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"][0]["radius"] += 0.01
        with pytest.raises(ValueError, match="revalidation"):
            document_to_chain(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            document_to_chain({"gauge": {"n": 4}})

    @pytest.mark.parametrize("n, ratio", HIGH_RATIOS)
    def test_round_trip_at_high_ratio(self, tmp_path, n, ratio):
        chain = chain_at_phase(Gauge(n, ratio, 1.0, pedoe_distance(n, ratio, 1.0)), 0.0)
        assert is_valid_chain(chain)
        path = tmp_path / "chain.json"
        save_chain(chain, path)
        back = load_chain(path)
        assert (back.gauge, back.phase, back.circles) == (chain.gauge, chain.phase, chain.circles)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["R", "r", "d", "phase"])
    def test_non_finite_gauge_or_phase_rejected(self, field, value):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        (doc if field == "phase" else doc["gauge"])[field] = value
        where = field if field == "phase" else f"gauge.{field}"
        with pytest.raises(ValueError, match=rf"non-finite number in chain document: {where}$"):
            document_to_chain(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "radius"])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_circle_rejected_at_every_position(self, index, field, value):
        # refused at parse time, with the field named, before revalidation
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"][index][field] = value
        with pytest.raises(ValueError, match=rf"chain document: circles\[{index}\]\.{field}$"):
            document_to_chain(doc)

    @pytest.mark.parametrize("n", [4.7, "4", True, 4.0])
    def test_chain_length_must_be_a_json_integer(self, n):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["gauge"]["n"] = n
        with pytest.raises(ValueError, match=rf"gauge\.n must be an integer, got {re.escape(repr(n))}$"):
            document_to_chain(json.loads(json.dumps(doc)))

    def test_circle_count_must_match_order(self):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"].pop()
        with pytest.raises(ValueError, match="circles"):
            document_to_chain(doc)


class TestSweepCsv:
    def test_header_is_exact(self):
        text = sweep_csv_text(G4, 4)
        header = text.splitlines()[0]
        assert header == (
            "phase,I1,I2,I3,I4,"
            "ReJ0_0,ImJ0_0,ReJ1_0,ImJ1_0,ReJ1_1,ImJ1_1,"
            "ReJ2_0,ImJ2_0,ReJ2_1,ImJ2_1,ReJ2_2,ImJ2_2,"
            "ReJ3_0,ImJ3_0,ReJ3_1,ImJ3_1,ReJ3_2,ImJ3_2,ReJ3_3,ImJ3_3"
        )
        assert header.split(",") == sweep_header(4)

    def test_values_round_trip_through_repr(self):
        text = sweep_csv_text(G3, 3)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 3
        i1 = [float(row[1]) for row in rows]
        assert max(i1) - min(i1) < 1e-12
        assert i1[0] == pytest.approx(7 / 15, abs=1e-12)


    def test_overflowing_moment_is_refused(self):
        # the same row check as write_sweep_csv, so no text holds inf or nan
        with pytest.raises(ValueError, match="moment overflows the float range: ReJ26_26$"):
            sweep_csv_text(Gauge.from_radii(64, 1e12, 1.0), 2)


class TestRenderSvg:
    def test_circle_count_concentric_six(self):
        svg = render_svg(chain_at_phase(G6, 0.0)).decode()
        assert svg.count("<circle") == 8

    def test_axial_chain_coordinates_appear(self):
        svg = render_svg(chain_at_phase(G3, 0.0)).decode()
        circles = [
            tuple(float(v) for v in re.match(
                r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', line
            ).groups())
            for line in svg.splitlines()
            if line.startswith("<circle")
        ]
        assert circles[0] == pytest.approx((4.0, 0.0, 15.0))  # outer parent
        assert circles[1] == pytest.approx((0.0, 0.0, 1.0))  # inner parent
        chain_circles = sorted(circles[2:], key=lambda t: t[1])
        # y flipped in SVG space; mirror pair straddles the axis
        assert chain_circles[0] == pytest.approx((-3.5, -5.625, 5.625), abs=1e-9)
        assert chain_circles[1] == pytest.approx((10.0, 0.0, 9.0), abs=1e-9)
        assert chain_circles[2] == pytest.approx((-3.5, 5.625, 5.625), abs=1e-9)

    def test_deterministic_bytes(self):
        chain = chain_at_phase(G4, 0.21)
        assert render_svg(chain) == render_svg(chain)

    def test_viewbox_pads_outer_circle(self):
        svg = render_svg(chain_at_phase(G4, 0.0)).decode()
        assert 'viewBox="-5.300000000000001 -6.300000000000001' in svg


class TestCliCommands:
    def test_gauge_derives_distance(self, capsys):
        assert main(["gauge", "--n", "3", "--R", "15", "--r", "1"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("d = "))
        assert float(line.removeprefix("d = ")) == pytest.approx(4.0, rel=1e-9)
        assert "radius range" in out

    def test_gauge_validates_good_distance(self, capsys):
        assert main(["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_gauge_flags_violation(self, capsys):
        assert main(["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "2"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_gauge_flags_touching_parents(self, capsys):
        # d = R - r puts r_min at 0: a verdict, not a traceback
        assert main(["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "5"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_gauge_at_r_ratio_1e15_prints_its_range(self, capsys):
        assert main(["gauge", "--n", "4", "--R", "1e15", "--r", "1"]) == 0
        assert capsys.readouterr().out == (
            "d = 999999999999997.0\n"
            "radius range: [1.0, 999999999999998.0]\n"
            "bend range: [1.000000000000002e-15, 1.0]\n"
        )

    @pytest.mark.parametrize("d", [None, "1e17"])
    def test_gauge_refuses_a_negative_radius_range(self, capsys, d):
        # past R/r of about 1e16 the float d equals R - r and r_min = -r/2
        argv = ["gauge", "--n", "4", "--R", "1e17", "--r", "1"] + (["--d", d] if d else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: r_min = -0.5 is negative")

    def test_gauge_rejects_bad_radii(self, capsys):
        assert main(["gauge", "--n", "4", "--R", "1", "--r", "6"]) == 2

    def test_gauge_reports_infeasible_radii(self, capsys):
        assert main(["gauge", "--n", "4", "--R", "2", "--r", "1"]) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_chain_invariants_pipeline(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(
            ["chain", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--phase", "0.3", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["gauge"] == {"n": 4, "R": 6.0, "r": 1.0, "d": 1.0}
        assert len(doc["circles"]) == 4
        capsys.readouterr()
        assert main(["invariants", "--chain", str(out), "--complex"]) == 0
        lines = capsys.readouterr().out.splitlines()
        i1 = float(next(l for l in lines if l.startswith("I1 = ")).removeprefix("I1 = "))
        assert i1 == pytest.approx(5 / 3, abs=1e-9)
        assert any(l.startswith("J1,1 = ") for l in lines)

    def test_chain_at_a_large_phase_revalidates(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        gauge = ["--n", "4", "--R", "6", "--r", "1", "--d", "1"]
        assert main(["chain", *gauge, "--phase", "1e12", "--out", str(out)]) == 0
        assert main(["invariants", "--chain", str(out)]) == 0

    @pytest.mark.parametrize("n, ratio", HIGH_RATIOS)
    def test_chain_invariants_render_at_high_ratio(self, tmp_path, n, ratio):
        out = tmp_path / "c.json"
        d = pedoe_distance(n, ratio, 1.0)
        code = main(
            ["chain", "--n", str(n), "--R", repr(ratio), "--r", "1", "--d", repr(d),
             "--phase", "0", "--out", str(out)]
        )
        assert code == 0
        assert main(["invariants", "--chain", str(out)]) == 0
        assert main(["render", "--chain", str(out), "--svg", str(tmp_path / "c.svg")]) == 0

    def test_invariants_refuses_to_print_overflowed_moments(self, tmp_path, capsys):
        # at R/r = 1e12 the centers reach |z| ~ 5e11, so z^m overflows a
        # float past m ~ 25; the first non-finite value printed would be J26,26
        n, ratio = HIGH_RATIOS[-1]
        out = tmp_path / "c.json"
        d = pedoe_distance(n, ratio, 1.0)
        code = main(
            ["chain", "--n", str(n), "--R", repr(ratio), "--r", "1", "--d", repr(d),
             "--phase", "0", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["invariants", "--chain", str(out), "--complex"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "J26,26 = inf" in captured.err
        # without --complex only the I_k are printed, and they are finite
        assert main(["invariants", "--chain", str(out)]) == 0
        values = [float(line.split(" = ")[1]) for line in capsys.readouterr().out.splitlines()]
        assert len(values) == 64 and all(map(math.isfinite, values))

    def test_chain_rejects_invalid_gauge(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(
            ["chain", "--n", "4", "--R", "6", "--r", "1", "--d", "2",
             "--phase", "0", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_chain_length_above_the_bound_is_invalid_input(self, tmp_path, capsys):
        with pytest.raises(ValueError):  # refused before any circle is built
            Gauge(100_000_000, 6.0, 1.0, 5.0)
        out = tmp_path / "c.json"
        code = main(
            ["chain", "--n", "100000000", "--R", "6", "--r", "1", "--d", "4.999999999999997",
             "--phase", "0", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: chain length n is too large\n"
        assert not out.exists()

    @pytest.mark.parametrize("radius", [0.0, -1.5])
    @pytest.mark.parametrize("command", ["invariants", "render"])
    def test_non_positive_document_radius_is_invalid_input(self, tmp_path, capsys, command, radius):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"][1]["radius"] = radius
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        svg = tmp_path / "c.svg"
        argv = [command, "--chain", str(path)] + (["--svg", str(svg)] if command == "render" else [])
        assert main(argv) == 2
        assert f"radius must be positive and finite, got {radius!r}" in capsys.readouterr().err
        assert not svg.exists()

    def test_invariants_rejects_tampered_file(self, tmp_path, capsys):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"][0]["x"] += 0.05
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["invariants", "--chain", str(bad)]) == 2

    def test_sweep_writes_csv_and_reports(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = main(
            ["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--samples", "100", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 101
        header = lines[0].split(",")
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        for name in ("I1", "I2", "I3"):
            col = [row[header.index(name)] for row in rows]
            assert max(col) - min(col) < 1e-8
        i4 = [row[header.index("I4")] for row in rows]
        assert max(i4) - min(i4) > 1e-5

    def test_sweep_computes_once_for_csv_and_report(self, tmp_path, capsys, monkeypatch):
        import steinerchains.document as document
        import steinerchains.inversion as inversion
        import steinerchains.moments as moments

        sweeps, tables, models = [], [], []
        real_blocks, real_rows = document._sweep_blocks, moments.sweep_rows
        real_model = inversion.concentric_model

        def counted_blocks(g, samples):
            sweeps.append((g, samples))
            return real_blocks(g, samples)

        def counted_rows(g, samples):
            tables.append((g, samples))
            return real_rows(g, samples)

        monkeypatch.setattr(document, "_sweep_blocks", counted_blocks)
        monkeypatch.setattr(moments, "sweep_rows", counted_rows)
        monkeypatch.setattr(document, "sweep_rows", counted_rows)
        monkeypatch.setattr(inversion, "concentric_model", lambda g: models.append(g) or real_model(g))
        csv_path = tmp_path / "s.csv"
        code = main(
            ["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--samples", "24", "--csv", str(csv_path)]
        )
        assert code == 0
        assert len(sweeps) == 1  # one pass over the blocks serves the CSV and the report
        assert tables == []  # and no table is built
        assert models == []  # construction builds no concentric model
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",") == sweep_header(4)
        # repr round-trips, so the CSV holds the swept floats exactly
        assert [list(map(float, l.split(","))) for l in lines[1:]] == real_rows(G4, 24)
        report = invariance_sweep(G4, 24)
        out = capsys.readouterr().out
        for k in range(1, 5):
            assert f"I{k} deviation = {report.bending_deviation[k]:.3e}" in out
        assert f"= {max(report.complex_deviation.values()):.3e}" in out
        assert f"max |Im J| = {report.max_imag:.3e}" in out

    def test_sweep_flags_violation_under_absurd_tolerance(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = main(
            ["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--samples", "10", "--csv", str(csv_path), "--tol", "1e-20"]
        )
        assert code == 1

    def test_symmetric_prints_document(self, capsys):
        code = main(
            ["symmetric", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--kind", "lateral"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase"] == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("kind", ["axial", "lateral"])
    def test_symmetric_out_prints_the_bytes_it_writes(self, tmp_path, capsysbinary, monkeypatch, kind):
        from steinerchains import cli, document, symmetric_chain

        built = []
        for module in (cli, document):  # every binding a command could build it through
            monkeypatch.setattr(module, "chain_to_document", lambda c: built.append(c) or chain_to_document(c))
        out = tmp_path / "c.json"
        code = main(["symmetric", "--n", "4", "--R", "6", "--r", "1", "--d", "1", "--kind", kind, "--out", str(out)])
        assert code == 0
        assert len(built) == 1  # built once for stdout and the file
        want = json.dumps(chain_to_document(symmetric_chain(G4, kind)), indent=2) + "\n"
        assert capsysbinary.readouterr().out == out.read_bytes() == want.encode()

    def test_symmetric_parity_error(self, capsys):
        code = main(
            ["symmetric", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--kind", "axial-max"]
        )
        assert code == 2

    def test_feasible_arithmetic_radii(self, capsys):
        assert main(["feasible", "--radii", "1,2,3,4"]) == 1
        out = capsys.readouterr().out
        assert "verdict: infeasible" in out
        line = next(l for l in out.splitlines() if l.startswith("relation residual:"))
        assert float(line.split(":")[1]) == pytest.approx(0.08355, abs=1e-4)
        assert "range check: [False, True, True, True]" in out

    def test_feasible_constructed_quadruple(self, capsys):
        assert main(["feasible", "--radii", "2,2.4,3,2.4", "--mode", "constructive"]) == 0
        out = capsys.readouterr().out
        assert "verdict: feasible" in out
        assert "virtual gauge" in out

    def test_feasible_bad_radii_count(self, capsys):
        assert main(["feasible", "--radii", "1,2,3"]) == 2

    @pytest.mark.parametrize(
        "radii, moment",
        [
            ("1e-110,2e-110,3e-110,4e-110", "third moment I3"),
            ("5e-103,5e-103,5e-103,5e-103", "third-moment relation"),
        ],
    )
    def test_feasible_overflowing_moment_is_invalid_input(self, capsys, radii, moment):
        assert main(["feasible", "--radii", radii]) == 2
        assert f"error: {moment}" in capsys.readouterr().err

    def test_feasible_underflowing_moment_is_invalid_input(self, capsys):
        assert main(["feasible", "--radii", "1e155,2e155,3e155,4e155"]) == 2
        assert "error: third moment I3 = sum 1/radius^3 underflows" in capsys.readouterr().err

    def test_gauge_residual_is_judged_at_the_scale_of_R_squared(self, tmp_path, capsys):
        # the true d of (4, 6e-6, 1e-6) is 1e-6: a chain built at d = 0 would
        # fail its own revalidation, so none is written
        gauge = ["--n", "4", "--R", "6e-6", "--r", "1e-6", "--d", "0"]
        assert main(["gauge", *gauge]) == 1
        assert "violation: d^2 residual 1e-12" in capsys.readouterr().out
        out = tmp_path / "c.json"
        assert main(["chain", *gauge, "--phase", "0", "--out", str(out)]) == 2
        assert "error: d^2 residual 1e-12" in capsys.readouterr().err
        assert not out.exists()

    def test_render_roundtrip(self, tmp_path, capsys):
        chain_path = tmp_path / "c.json"
        save_chain(chain_at_phase(G3, 0.0), chain_path)
        svg_path = tmp_path / "c.svg"
        assert main(["render", "--chain", str(chain_path), "--svg", str(svg_path)]) == 0
        content = svg_path.read_bytes()
        assert content.startswith(b"<svg")
        assert content.count(b"<circle") == 5

    def test_missing_file_is_invalid_input(self, capsys):
        assert main(["render", "--chain", "/nonexistent.json", "--svg", "/tmp/x.svg"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["gauge", "--n", "4", "--R={}", "--r", "1"], "--R"),
            (["gauge", "--n", "4", "--R", "6", "--r={}"], "--r"),
            (["gauge", "--n", "4", "--R", "6", "--r", "1", "--d={}"], "--d"),
            (["chain", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
              "--phase={}", "--out", "c.json"], "--phase"),
            (["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
              "--samples", "4", "--csv", "s.csv", "--tol={}"], "--tol"),
            (["gauge", "--n", "4", "--R", "{}", "--r", "1"], "--R"),
        ],
    )
    def test_non_finite_option_is_invalid_input(self, tmp_path, monkeypatch, capsys, argv, option, value):
        # the --opt=value form, and a bare value: "-inf" is read as a value, not an option
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([a.format(value) for a in argv])
        assert exc.value.code == 2
        assert f"argument {option}: expected a finite number, got '{value}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("radii", ["nan,1,2,3", "1,2,3,inf"])
    def test_non_finite_radii_are_invalid_input(self, capsys, radii):
        assert main(["feasible", "--radii", radii]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4.7, "4", True, 4.0])
    @pytest.mark.parametrize("command", ["invariants", "render"])
    def test_non_integer_document_chain_length_is_invalid_input(self, tmp_path, capsys, command, n):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["gauge"]["n"] = n
        path = tmp_path / "n.json"
        path.write_text(json.dumps(doc))
        svg = tmp_path / "c.svg"
        argv = [command, "--chain", str(path)] + (["--svg", str(svg)] if command == "render" else [])
        assert main(argv) == 2
        assert "gauge.n must be an integer" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("command", ["invariants", "render"])
    def test_non_finite_document_is_invalid_input(self, tmp_path, capsys, command):
        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"][2]["x"] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes the NaN token and reads it back
        svg = tmp_path / "c.svg"
        argv = [command, "--chain", str(path)] + (["--svg", str(svg)] if command == "render" else [])
        assert main(argv) == 2
        assert "circles[2].x" in capsys.readouterr().err
        assert not svg.exists()

    def test_negative_sweep_tolerance_is_invalid_input(self, tmp_path, capsys):
        # a span is never below a negative threshold, so every sweep would
        # be a violation; the option is refused before the CSV is written
        csv_path = tmp_path / "s.csv"
        code = main(
            ["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--samples", "10", "--csv", str(csv_path), "--tol", "-1"]
        )
        assert code == 2
        assert "--tol must be non-negative" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("max_k", ["0", "-2"])
    def test_max_k_below_one_is_invalid_input(self, tmp_path, capsys, max_k):
        path = tmp_path / "c.json"
        save_chain(chain_at_phase(G4, 0.3), path)
        assert main(["invariants", "--chain", str(path), "--max-k", max_k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"max_k must be at least 1, got {max_k}" in captured.err
        assert main(["invariants", "--chain", str(path), "--max-k", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"I1 = {bending_moment(chain_at_phase(G4, 0.3), 1)!r}"]

    def test_max_k_above_the_cap_is_refused_before_any_work(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_chain(chain_at_phase(G4, 0.3), path)
        with alarm(1.0):
            assert main(["invariants", "--chain", str(path), "--max-k", "100000000000000000000"]) == 2
        assert "moment orders must be from 0 to 1024, got 100000000000000000000" in capsys.readouterr().err
        assert main(["invariants", "--chain", str(path), "--max-k", str(MAX_MOMENT_ORDER)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == MAX_MOMENT_ORDER
        with pytest.raises(SystemExit):
            main(["invariants", "--help"])
        assert f"highest I_k to print (1 to {MAX_MOMENT_ORDER})" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["1", str(MAX_SWEEP_SAMPLES + 1), "100000000000000000000"])
    def test_samples_outside_the_range_are_refused_before_any_work(self, tmp_path, capsys, samples):
        csv_path = tmp_path / "s.csv"
        with alarm(1.0):
            code = main(["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
                         "--samples", samples, "--csv", str(csv_path)])
        assert code == 2
        assert f"a sweep takes from 2 to {MAX_SWEEP_SAMPLES} samples, got {samples}" in capsys.readouterr().err
        assert not csv_path.exists()
        # the cap itself is taken: its first block of phases comes at once
        assert len(next(_sweep_blocks(G4, MAX_SWEEP_SAMPLES))) > 0
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert f"number of phases (2 to {MAX_SWEEP_SAMPLES})" in capsys.readouterr().out

    def test_sweep_overflow_is_invalid_input(self, tmp_path, capsys):
        # at n = 64 and R/r = 1e12 the J_{k,m} overflow past m ~ 25; that is
        # an input outside the float range, not an invariance violation
        n, ratio = HIGH_RATIOS[-1]
        csv_path = tmp_path / "s.csv"
        code = main(
            ["sweep", "--n", str(n), "--R", repr(ratio), "--r", "1",
             "--d", repr(pedoe_distance(n, ratio, 1.0)), "--samples", "2", "--csv", str(csv_path)]
        )
        assert code == 2
        assert "moment overflows the float range: ReJ26_26" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_refused_sweep_leaves_an_existing_csv_unchanged(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        gauge4 = ["--n", "4", "--R", "6", "--r", "1", "--d", "1"]
        assert main(["sweep", *gauge4, "--samples", "5", "--csv", str(csv_path)]) == 0
        before = csv_path.read_bytes()
        n, ratio = 64, 1e12
        code = main(
            ["sweep", "--n", str(n), "--R", repr(ratio), "--r", "1",
             "--d", repr(pedoe_distance(n, ratio, 1.0)), "--samples", "2", "--csv", str(csv_path)]
        )
        assert code == 2
        assert "moment overflows the float range" in capsys.readouterr().err
        assert csv_path.read_bytes() == before

    def test_gauge_at_the_smallest_scale_closes(self, capsys):
        assert main(["gauge", "--n", "4", "--R", "4e-154", "--r", "1e-155"]) == 0
        assert capsys.readouterr().out.startswith("d = ")

    @pytest.mark.parametrize("d", [None, "0"])
    def test_gauge_whose_square_underflows_is_invalid_input(self, capsys, d):
        # (R - r)^2 is subnormal: d would read 0, the concentric family
        argv = ["gauge", "--n", "4", "--R", "4e-169", "--r", "1e-170"] + (["--d", d] if d else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: gauge underflows the float range: R - r = 3.9000000000000004e-169, squared\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauge", "--n", "4", "--R", "1e200", "--r", "1"],
            ["gauge", "--n", "4", "--R", "1e200", "--r", "1", "--d", "1"],
            ["chain", "--n", "4", "--R", "1e200", "--r", "1", "--d", "1", "--phase", "0", "--out", "c.json"],
            ["sweep", "--n", "4", "--R", "1e200", "--r", "1", "--d", "1", "--samples", "4", "--csv", "s.csv"],
            ["symmetric", "--n", "4", "--R", "1e200", "--r", "1", "--d", "1", "--kind", "axial", "--out", "c.json"],
        ],
    )
    def test_gauge_past_the_float_range_is_invalid_input(self, tmp_path, monkeypatch, capsys, argv):
        # (R - r)^2 overflows: an input error, not an OverflowError traceback
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gauge overflows the float range: R - r = 1e+200, squared\n"
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_defaults_leak_between_calls(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(
            ["chain", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--phase", "0", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        # --d was given to the previous call; gauge must still derive it
        assert main(["gauge", "--n", "3", "--R", "15", "--r", "1"]) == 0
        assert capsys.readouterr().out.startswith("d = 4.0")

    def test_rejected_call_leaves_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gauge", "--n", "4", "--R", "6"])
        assert exc.value.code == 2
        assert main(["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "1"]) == 0

    def test_help_is_identical_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: steiner")


GAUGE_ARGS = ["--n", "4", "--R", "6", "--r", "1", "--d", "1"]


class TestParser:
    """The command table's parser: the argument forms it reads and the
    input errors it refuses, each with exit 2 and the argument named."""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("gauge", ["--n", "--R", "--r", "--d"]),
            ("chain", ["--n", "--R", "--r", "--d", "--phase", "--out"]),
            ("invariants", ["--chain", "--max-k", "--complex"]),
            ("sweep", ["--n", "--R", "--r", "--d", "--samples", "--csv", "--tol"]),
            ("symmetric", ["--n", "--R", "--r", "--d", "--kind", "--out"]),
            ("feasible", ["--radii", "--mode"]),
            ("render", ["--chain", "--svg"]),
        ],
    )
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help_lists_its_options(self, capsys, command, options, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: steiner {command}")
        assert re.findall(r"^  (--[\w-]+)", out, re.M) == options
        assert [option[0] for option in _COMMANDS[command][3]] == [o[2:] for o in options]

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        commands = ["gauge", "chain", "invariants", "sweep", "symmetric", "feasible", "render"]
        assert re.findall(r"^  ([a-z]+) ", out, re.M) == commands

    @pytest.mark.parametrize(
        "argv, prog, message",
        [
            ([], "steiner", "the following arguments are required: command"),
            (["foo"], "steiner", "argument command: invalid choice: 'foo' (choose from 'gauge', "),
            (["gauge", *GAUGE_ARGS, "--foo", "1"], "steiner gauge", "unrecognized arguments: --foo"),
            (["gauge", *GAUGE_ARGS, "4"], "steiner gauge", "unrecognized arguments: 4"),
            (["chain", *GAUGE_ARGS, "--out", "c.json"], "steiner chain",
             "the following arguments are required: --phase"),
            (["gauge", "--n", "4", "--R", "6", "--r"], "steiner gauge", "argument --r: expected one argument"),
            (["gauge", "--n", "4.0", "--R", "6", "--r", "1"], "steiner gauge",
             "argument --n: invalid int value: '4.0'"),
            (["symmetric", *GAUGE_ARGS, "--kind", "axial-mid", "--out", "c.json"], "steiner symmetric",
             "argument --kind: invalid choice: 'axial-mid' (choose from 'axial', 'axial-max', "),
            (["feasible", "--radii", "1,2,3,4", "--mode", "exact"], "steiner feasible",
             "argument --mode: invalid choice: 'exact' (choose from 'paper', 'constructive')"),
            (["invariants", "--chain", "c.json", "--complex=x"], "steiner invariants",
             "argument --complex: ignored explicit argument 'x'"),
            (["sweep", *GAUGE_ARGS, "--samp", "4", "--csv", "s.csv"], "steiner sweep",
             "unrecognized arguments: --samp"),
        ],
    )
    def test_input_error_exits_2_naming_the_argument(self, tmp_path, monkeypatch, capsys, argv, prog, message):
        monkeypatch.chdir(tmp_path)
        save_chain(chain_at_phase(G4, 0.3), tmp_path / "c.json")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        usage, error = err.splitlines()
        assert out == "" and usage.startswith(f"usage: {prog} ")
        assert error.startswith(f"{prog}: error: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["gauge", "--n", "4", "--R", "6", "--r", "1"], ["gauge", "--n=4", "--R=6", "--r=1"]),
            (["sweep", *GAUGE_ARGS, "--samples", "3", "--csv", "s.csv", "--tol", "-1e-3"],
             ["sweep", *GAUGE_ARGS, "--samples=3", "--csv=s.csv", "--tol=-1e-3"]),
            (["symmetric", *GAUGE_ARGS, "--kind", "lateral", "--out", "a=b.json"],
             ["symmetric", *GAUGE_ARGS, "--kind=lateral", "--out=a=b.json"]),
            (["invariants", "--chain", "-c.json", "--max-k", "-2", "--complex"],
             ["invariants", "--chain=-c.json", "--max-k=-2", "--complex"]),
        ],
    )
    def test_equals_and_space_forms_parse_alike(self, spaced, joined):
        parse = build_parser().parse_args
        assert vars(parse(spaced)) == vars(parse(joined))

    def test_defaults_and_repeated_options(self):
        args = build_parser().parse_args(["sweep", *GAUGE_ARGS, "--samples", "3", "--csv", "s.csv", "--n", "5"])
        assert vars(args) == {
            "command": "sweep", "n": 5, "R": 6.0, "r": 1.0, "d": 1.0, "samples": 3, "csv": "s.csv", "tol": 1e-8,
        }
        args = build_parser().parse_args(["invariants", "--chain", "c.json"])
        assert (args.max_k, getattr(args, "complex")) == (None, False)


class TestOneShot:
    """`python -m steinerchains` in a fresh interpreter: __main__ and entry()."""

    @staticmethod
    def run(*argv: str, **env: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "steinerchains", *argv],
            env=child_env(**env), capture_output=True, text=True, timeout=60,
        )

    def test_gauge_derives_distance(self):
        proc = self.run("gauge", "--n", "3", "--R", "15", "--r", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("d = 4.0")

    def test_invalid_input_exits_2(self):
        proc = self.run("gauge", "--n", "4", "--R", "inf", "--r", "1")
        assert proc.returncode == 2
        assert "expected a finite number" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauge"],
            ["gauge", "--d", "1"],
            ["chain", "--d", "1", "--phase", "0", "--out", "{tmp}/c.json"],
            ["sweep", "--d", "1", "--samples", "2", "--csv", "{tmp}/s.csv"],
            ["symmetric", "--d", "1", "--kind", "axial"],
        ],
    )
    def test_chain_length_past_the_float_range_exits_2(self, tmp_path, argv):
        # math.pi / n cannot convert such an int to a float
        argv = [a.format(tmp=tmp_path) for a in argv]
        proc = self.run(*argv, "--n", "1" + "0" * 400, "--R", "6", "--r", "1")
        assert proc.returncode == 2
        assert proc.stderr == "error: chain length n is too large\n"
        assert list(tmp_path.iterdir()) == []


class TestToleranceOverride:
    """STEINER_TOL is read once per process, at the library's first use, so
    each value of it is tried in a fresh interpreter."""

    def test_env_variable_loosens_validation(self):
        # d = 1.001 violates closure at the default 1e-9 scale but passes
        # once STEINER_TOL is raised
        args = ["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "1.001"]
        assert TestOneShot.run(*args).returncode == 1
        assert TestOneShot.run(*args, STEINER_TOL="1e-2").returncode == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1", "abc"])
    @pytest.mark.parametrize(
        "argv", [["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "1"], ["feasible", "--radii", "3,2.4,2,2.4"]]
    )
    def test_unusable_env_tolerance_is_invalid_input(self, value, argv):
        # a NaN or infinite limit passes or fails every check, and so does a negative one
        proc = TestOneShot.run(*argv, STEINER_TOL=value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: STEINER_TOL must be a finite number >= 0, got {value!r}\n"

    def test_zero_tolerance_is_usable(self):
        code = (
            "from steinerchains import set_tolerance, tolerance\n"
            "env = tolerance()\n"
            "set_tolerance(0.0)\n"
            "override = tolerance()\n"
            "set_tolerance(None)\n"
            "print(env, override, tolerance())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(STEINER_TOL="0"), capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0.0 0.0 0.0\n"  # tolerance() == 0.0 from the environment, the override and after it

    def test_environment_is_read_once_per_process(self, monkeypatch):
        # the library has been used in this process, so a later STEINER_TOL,
        # even an unusable one, reaches no check
        from steinerchains import chain_residuals, feasibility_check, tolerance

        chain = chain_at_phase(G4, 0.3)
        before = feasibility_check((2.0, 2.4, 3.0, 2.4), "constructive"), chain_residuals(chain)
        monkeypatch.setenv("STEINER_TOL", "abc")
        assert tolerance() == 1e-9
        report, residuals = feasibility_check((2.0, 2.4, 3.0, 2.4), "constructive"), chain_residuals(chain)
        assert (report, residuals) == before
        assert report.feasible and residuals.ok
        assert residuals.limit == 1e-9 * G4.R

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_set_tolerance_refuses_an_unusable_value(self, value):
        from steinerchains import set_tolerance, tolerance

        with pytest.raises(ValueError, match=re.escape(f"the tolerance must be a finite number >= 0, got {value!r}")):
            set_tolerance(value)
        assert tolerance() == 1e-9

    @pytest.mark.parametrize(
        "value", [True, False, "1e-3", 1j, [1e-3], 10**400], ids=["True", "False", "str", "complex", "list", "huge-int"]
    )
    def test_set_tolerance_refuses_what_is_not_a_real_number(self, value):
        from steinerchains import set_tolerance, tolerance

        with pytest.raises(ValueError, match=re.escape(f"the tolerance must be a finite number >= 0, got {value!r}")):
            set_tolerance(value)
        assert tolerance() == 1e-9

    @pytest.mark.parametrize("value, stored", [(1, 1.0), (0, 0.0)])
    def test_set_tolerance_stores_a_float(self, value, stored):
        from steinerchains import set_tolerance, tolerance

        set_tolerance(value)
        try:
            assert type(tolerance()) is float
            assert tolerance() == stored
        finally:
            set_tolerance(None)

    def test_set_tolerance_override(self):
        from steinerchains import set_tolerance, tolerance

        assert tolerance() == 1e-9
        set_tolerance(1e-6)
        try:
            assert tolerance() == 1e-6
        finally:
            set_tolerance(None)
        assert tolerance() == 1e-9

    def test_override_reaches_the_chain_judge(self):
        # a radius moved by 1e-3 passes a 1e-2 * R limit and fails 1e-9 * R,
        # for the document loader and is_valid_chain alike
        from steinerchains import chain_residuals, set_tolerance, tolerance

        doc = chain_to_document(chain_at_phase(G4, 0.3))
        doc["circles"][0]["radius"] += 1e-3
        set_tolerance(1e-2)
        try:
            chain = document_to_chain(doc)
            assert is_valid_chain(chain)
            assert chain_residuals(chain).limit == tolerance() * G4.R
        finally:
            set_tolerance(None)
        assert chain_residuals(chain).limit == tolerance() * G4.R
        assert not is_valid_chain(chain)
        with pytest.raises(ValueError, match="revalidation"):
            document_to_chain(doc)
