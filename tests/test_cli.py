import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

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
from steinerchains.cli import build_parser, main
from steinerchains.moments import InvarianceReport, sweep_header

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
        import steinerchains.moments as moments
        import steinerchains.porism as porism

        tables, models = [], []
        real_rows, real_model = moments.sweep_rows, porism.concentric_model

        def counted_rows(g, samples):
            tables.append(real_rows(g, samples))
            return tables[-1]

        monkeypatch.setattr(moments, "sweep_rows", counted_rows)
        monkeypatch.setattr(document, "sweep_rows", counted_rows)
        monkeypatch.setattr(porism, "concentric_model", lambda g: models.append(g) or real_model(g))
        csv_path = tmp_path / "s.csv"
        code = main(
            ["sweep", "--n", "4", "--R", "6", "--r", "1", "--d", "1",
             "--samples", "24", "--csv", str(csv_path)]
        )
        assert code == 0
        assert len(tables) == 1  # one sweep serves the CSV and the report
        assert models == []  # construction builds no concentric model
        lines = csv_path.read_text().splitlines()
        assert lines[0].split(",") == sweep_header(4)
        # repr round-trips, so the CSV holds the swept floats exactly
        assert [list(map(float, l.split(","))) for l in lines[1:]] == tables[0]
        report = InvarianceReport.from_rows(4, tables[0])
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
        ],
    )
    def test_non_finite_option_is_invalid_input(self, tmp_path, monkeypatch, capsys, argv, option, value):
        # the --opt=value form, since argparse reads a bare "-inf" as an option
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


class TestOneShot:
    """`python -m steinerchains` in a fresh interpreter: __main__ and entry()."""

    @staticmethod
    def run(*argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        return subprocess.run(
            [sys.executable, "-m", "steinerchains", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_gauge_derives_distance(self):
        proc = self.run("gauge", "--n", "3", "--R", "15", "--r", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("d = 4.0")

    def test_invalid_input_exits_2(self):
        proc = self.run("gauge", "--n", "4", "--R", "inf", "--r", "1")
        assert proc.returncode == 2
        assert "expected a finite number" in proc.stderr


class TestToleranceOverride:
    def test_env_variable_loosens_validation(self, monkeypatch, capsys):
        # d = 1.001 violates closure at the default 1e-9 scale but passes
        # once STEINER_TOL is raised
        args = ["gauge", "--n", "4", "--R", "6", "--r", "1", "--d", "1.001"]
        assert main(args) == 1
        monkeypatch.setenv("STEINER_TOL", "1e-2")
        assert main(args) == 0

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
