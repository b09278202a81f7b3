import json
import math

import pytest

from fran_d2d.cli import (
    build_parser,
    main,
    parse_grid,
    parse_power,
    run_verification,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsers:
    def test_power_exponent_notation(self):
        assert parse_power("2^20") == 2.0**20
        assert parse_power("1024") == 1024.0

    def test_grid_range(self):
        assert parse_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_grid_list_and_scalar(self):
        assert parse_grid("0.5,2") == (0.5, 2.0)
        assert parse_grid("0.5") == (0.5,)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("0:1:0.3")


class TestNdtCommand:
    def test_full_cache_point(self, capsys):
        code, out, _ = run_cli(capsys, "ndt", "--mu", "1", "--rf", "0", "--rd", "0")
        assert code == 0
        assert "ndt_min=1" in out and "mix=cache_zf:1" in out

    def test_d2d_point(self, capsys):
        code, out, _ = run_cli(capsys, "ndt", "--mu", "0.5", "--rf", "0", "--rd", "2")
        assert code == 0
        assert "ndt_min=1.25" in out and "regime=d2d_dominant" in out

    def test_infeasible_point(self, capsys):
        code, out, _ = run_cli(capsys, "ndt", "--mu", "0.25", "--rf", "0", "--rd", "0.5")
        assert code == 0
        assert "ndt_min=inf" in out

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "ndt", "--mu", "1.5", "--rf", "0", "--rd", "0")
        assert code == 2
        assert "error" in err


class TestSweepCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys,
                "sweep", "--mu", "0:1:0.05", "--rf", "0.5", "--rd", "0.5,2",
                "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_header_and_schema(self, tmp_path, capsys):
        p = tmp_path / "out.csv"
        run_cli(capsys, "sweep", "--mu", "0,1", "--rf", "1", "--rd", "1", "--out", str(p))
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        assert lines[1] == "mu,rf,rd,regime,ndt_min,ndt_lower,ndt_achievable,mix"

    def test_weak_d2d_curve_equals_no_d2d_curve(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        run_cli(
            capsys,
            "sweep", "--mu", "0:1:0.05", "--rf", "0.5", "--rd", "0,0.5",
            "--out", str(out),
        )
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        by_rd = {}
        for r in rows:
            by_rd.setdefault(r[2], []).append((r[0], r[4]))
        assert by_rd["0"] == by_rd["0.5"]

    def test_full_cache_column_is_one(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        run_cli(capsys, "sweep", "--mu", "1", "--rf", "0:3:0.5", "--rd", "0:3:0.5",
                "--out", str(out))
        for line in out.read_text().splitlines()[2:]:
            assert line.split(",")[4] == "1"

    def test_infinity_serialization(self, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        run_cli(capsys, "sweep", "--mu", "0", "--rf", "0", "--rd", "1",
                "--out", str(csv_path))
        assert "inf" in csv_path.read_text().splitlines()[2]

        json_path = tmp_path / "e.json"
        run_cli(capsys, "sweep", "--mu", "0", "--rf", "0", "--rd", "1",
                "--out", str(json_path), "--format", "json")
        doc = json.loads(json_path.read_text())
        assert doc["schema"].startswith("fran2x2-sweep")
        row = doc["rows"][0]
        assert row["ndt_min"] is None
        assert "ndt_min" in row["infinite"]

    def test_bad_grid_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--mu", "0:1:0.3", "--rf", "1", "--rd", "1")
        assert code == 2 and "error" in err

    def test_json_output_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run_cli(
                capsys,
                "sweep", "--mu", "0:1:0.25", "--rf", "0,2", "--rd", "0,2",
                "--format", "json", "--out", str(p),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSimulateCommand:
    def test_det_matches_reference(self, tmp_path, capsys):
        out = tmp_path / "det.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "det", "--nd", "5", "--rd", "1", "--L", "4000",
            "--seeds", "10", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reference"]["value"] == pytest.approx(1.75)
        assert all(row["exact"] for row in doc["per_seed"])
        assert all(
            row["ndt_estimate"] == pytest.approx(1.75) for row in doc["per_seed"]
        )
        assert doc["summary"]["max_abs_deviation"] < 1e-9

    def test_ia_noiseless_error_free(self, tmp_path, capsys):
        out = tmp_path / "ia.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "ia", "--nd", "3", "--power", "2^16", "--rd", "2",
            "--eps-prime", "0.5", "--seeds", "5", "--uses", "8",
            "--noiseless", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(row["error_rate"] == 0.0 for row in doc["per_seed"])

    def test_zf_trend_over_power_ladder(self, tmp_path, capsys):
        out = tmp_path / "zf.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "zf", "--power", "2^16,2^24,2^32", "--L", "1000",
            "--seeds", "3", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        for row in doc["per_seed"]:
            devs = [abs(step["ndt_estimate"] - 1.0) for step in row["ladder"]]
            assert devs[0] >= devs[1] >= devs[2]

    def test_ia_noisy_defaults_run(self, tmp_path, capsys):
        out = tmp_path / "ia_noisy.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "ia", "--nd", "3", "--power", "2^20", "--rd", "2",
            "--seeds", "3", "--uses", "4", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(row["exact_demod"] for row in doc["per_seed"])
        assert all(0.0 <= row["error_rate"] <= 1.0 for row in doc["per_seed"])

    def test_det_echoes_only_the_flags_it_reads(self, tmp_path, capsys):
        out = tmp_path / "det_flags.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "det", "--nd", "3", "--L", "40", "--seeds", "1",
            "--power", "2^16,2^20", "--uses", "3", "--out", str(out),
        )
        assert code == 0
        flags = json.loads(out.read_text())["flags"]
        assert flags == {"nd": 3, "rd": 1.0, "L": 40, "seeds": 1}

    def test_soft_infeasible_without_fronthaul(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "soft", "--rf", "0", "--seeds", "1"
        )
        assert code == 2 and "infeasible" in err


class TestBadInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--mu", "0.5", "--rf", "nan", "--rd", "1"),
            ("sweep", "--mu", "0.5", "--rf", "1", "--rd", "1", "--out", "{missing}"),
            ("simulate", "det", "--L", "40", "--seeds", "1", "--out", "{missing}"),
            ("simulate", "ia", "--power", "inf", "--seeds", "1"),
            ("simulate", "zf", "--power", "inf", "--seeds", "1"),
            ("simulate", "soft", "--power", "inf", "--seeds", "1"),
            ("simulate", "ia", "--power", "2^16,2^20", "--seeds", "1"),
            ("simulate", "soft", "--power", "2^16,2^20", "--seeds", "1"),
            ("simulate", "ia", "--power", "2^2000", "--seeds", "1"),
            ("simulate", "zf", "--power=-8^0.5", "--seeds", "1"),
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing" / "out.txt")
        code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_fresh_checkout_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 15

    def test_precoder_fault_breaks_alignment_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fault", "precoder_sign")
        assert code == 1
        assert "FAIL ia.alignment" in out

    def test_formula_fault_breaks_tightness_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fault", "formula_branch")
        assert code == 1
        assert "FAIL formulas.tightness" in out

    def test_run_verification_returns_no_failures(self):
        assert run_verification() == []


class TestParserShape:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["ndt", "--mu", "0.5", "--rf", "1", "--rd", "1"])
        assert args.command == "ndt"

    def test_simulate_power_ladder_flag(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "zf", "--power", "2^10,2^20"])
        assert args.power == [1024.0, 2.0**20]
