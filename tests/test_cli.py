import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fran_d2d.cli import (
    SweepSpec,
    build_parser,
    main,
    parse_grid,
    parse_power,
    render_sweep,
    run_verification,
)
from fran_d2d.fran_schemes import run_end_to_end
from fran_d2d.model import SystemParams


DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI on its arguments under a 256 MB address-space limit.
_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from fran_d2d.cli import main
sys.exit(main(sys.argv[1:]))
"""


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

    def test_golden_digests(self):
        # 21 x 9 x 7 points: all three regimes, infinite and infeasible rows.
        spec = SweepSpec(parse_grid("0:1:0.05"), parse_grid("0:2:0.25"), parse_grid("0:3:0.5"))
        digests = {
            "csv": "9cd57336f58f8e20847e06d855c2e9e380ba342bf745cbba0404e7c91f85760a",
            "json": "737f4a89aeb6e4b7c2bba899326e971ff7c55c560004fd6fb337bb0f60e8e117",
        }
        for fmt, digest in digests.items():
            text = render_sweep(dataclasses.replace(spec, fmt=fmt))
            assert hashlib.sha256(text.encode()).hexdigest() == digest
        rows = [line.split(",") for line in render_sweep(spec).splitlines()[2:]]
        assert {r[3] for r in rows} == {"both_small", "fronthaul_dominant", "d2d_dominant"}
        assert any(r[4:7] == ["inf"] * 3 and r[7] == "infeasible" for r in rows)

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
        rows = doc["per_seed"]
        assert [(r["seed"], r["power"]) for r in rows] == [
            (seed, 2.0**k) for seed in range(3) for k in (16, 24, 32)
        ]
        # The finite-P gap: b = 2 floor(log2(P) / 2) bits per use and
        # ceil(L / b) uses, normalized by L / log2(P).
        for row in rows:
            log2p = math.log2(row["power"])
            b = 2 * math.floor(log2p / 2.0)
            assert row["exact"] and row["bits_per_use"] == b
            assert row["ndt_estimate"] == math.ceil(1000 / b) * log2p / 1000

    def test_zf_at_2_to_48_runs_in_256_mb(self, capsys):
        # 24 bits per real dimension: a 2^24-point axis alone would take 128 MiB.
        argv = ["simulate", "zf", "--power", "2^48", "--L", "64", "--seeds", "1"]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        child = subprocess.run(
            [sys.executable, "-c", _LIMITED_CLI, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        code, unlimited, _ = run_cli(capsys, *argv)
        assert code == 0 and child.stdout == unlimited
        assert json.loads(unlimited)["per_seed"][0]["bits_per_use"] == 48

    @pytest.mark.parametrize(
        "argv, scheme, mu, r_f, powers",
        [
            (("zf", "--power", "2^12,2^16"), "cache_zf", 1.0, 0.0, (2.0**12, 2.0**16)),
            (
                ("soft", "--rf", "0.5", "--power", "2^16"),
                "soft_transfer", 0.0, 0.5, (2.0**16,),
            ),
        ],
    )
    def test_zf_like_rows_equal_run_end_to_end(
        self, tmp_path, capsys, argv, scheme, mu, r_f, powers
    ):
        out = tmp_path / "rows.json"
        code, _, _ = run_cli(
            capsys, "simulate", *argv, "--L", "500", "--seeds", "2", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "fran2x2-simulate/2"
        reference = 1.0 + 1.0 / r_f if scheme == "soft_transfer" else 1.0
        assert doc["reference"] == {"name": scheme, "value": reference}
        want = []
        for seed in range(2):
            for power in powers:
                params = SystemParams(mu=mu, r_f=r_f, r_d=0.0, file_bits=500, power=power)
                rep = run_end_to_end(params, seed, scheme)
                want.append(
                    {
                        "seed": seed,
                        "power": power,
                        "exact": rep.exact,
                        "mismatched_bits": rep.mismatched_bits,
                        "bits_per_use": rep.details["bits_per_use"],
                        "t_f": rep.latency.t_f,
                        "t_e": rep.latency.t_e,
                        "t_d": rep.latency.t_d,
                        "ndt_estimate": rep.ndt_estimate,
                    }
                )
        assert doc["per_seed"] == want
        estimates = [row["ndt_estimate"] for row in want]
        assert doc["summary"]["mean_ndt_estimate"] == sum(estimates) / len(estimates)

    @pytest.mark.parametrize("nd, rd, length", [(5, 1.0, 40), (5, 1.0, 14), (7, 0.5, 100)])
    def test_det_rows_equal_run_end_to_end(self, tmp_path, capsys, nd, rd, length):
        # 14 and 100 are not multiples of n_d - 1: the runner pads the last use.
        out = tmp_path / "det_rows.json"
        code, _, _ = run_cli(
            capsys, "simulate", "det", "--nd", str(nd), "--rd", str(rd), "--L", str(length),
            "--seeds", "3", "--out", str(out),
        )
        assert code == 0
        params = SystemParams(mu=0.5, r_f=0.0, r_d=rd, file_bits=length, power=2.0**nd)
        want = []
        for seed in range(3):
            rep = run_end_to_end(params, seed, "d2d_det", n_d=nd)
            lat = rep.latency
            want.append(
                {
                    "seed": seed,
                    "exact": rep.exact,
                    "t_f": lat.t_f,
                    "t_e": lat.t_e,
                    "t_d": lat.t_d,
                    "ndt_estimate": rep.ndt_estimate,
                }
            )
        assert json.loads(out.read_text())["per_seed"] == want

    def test_ia_noiseless_long_blocks_are_pinned(self, capsys):
        # 2048-use noiseless blocks at n_d = 5: at q = 4 and 5 (784 and 2025
        # outer sums) seeds decide them, at q = 9 the two passes do; the
        # output is the recorded JSON byte for byte.
        code, out, _ = run_cli(
            capsys,
            "simulate", "ia", "--noiseless", "--uses", "2048", "--power", "2^24",
            "--seeds", "12",
        )
        assert code == 0
        assert out == (DATA / "simulate_ia_noiseless_2048.json").read_text()

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

    def test_ia_ignores_the_l_flag_it_does_not_read(self, capsys):
        argv = ("simulate", "ia", "--noiseless", "--power", "2^16", "--seeds", "1")
        code, out, err = run_cli(capsys, *argv, "--L", "0")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv)[1]

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
            ("simulate", "det", "--seeds", "-2", "--L", "40"),
            ("simulate", "zf", "--seeds", "0"),
            ("simulate", "ia", "--eps-prime", "nan", "--seeds", "1"),
            ("simulate", "ia", "--eps-prime", "inf", "--seeds", "1"),
            ("simulate", "det", "--rd", "1.1125369292536007e-308", "--L", "4", "--seeds", "1"),
            ("simulate", "ia", "--power", "1e300", "--seeds", "1"),
            ("simulate", "zf", "--L", "-5", "--seeds", "1"),
            ("simulate", "det", "--L", "-3", "--seeds", "1"),
            ("simulate", "ia", "--rd", "inf", "--seeds", "1"),
            ("simulate", "det", "--rd", "inf", "--L", "40", "--seeds", "1"),
            ("simulate", "soft", "--rf", "inf", "--L", "40", "--seeds", "1"),
            ("simulate", "ia", "--nd", "1001", "--seeds", "1"),
            ("simulate", "det", "--nd", "1025", "--L", "1024", "--seeds", "1"),
            ("sweep", "--mu", "0.5", "--rf", "1", "--rd", "1", "--seeds", "3"),
            ("simulate", "zf", "--L", "1000000000000000000", "--seeds", "1"),
            ("simulate", "det", "--L", "1000000000000000000", "--seeds", "1"),
            ("sweep", "--mu", "0:1:1e-300", "--rf", "1", "--rd", "1"),
            ("sweep", "--mu", "0:1:1e-320", "--rf", "1", "--rd", "1"),
            ("sweep", "--mu", "0.3", "--rf", "0:1e-300:1e-301", "--rd", "1"),
            ("sweep", "--mu", "0.3", "--rf", "0:1e-9:1e-11", "--rd", "1"),
            ("simulate", "ia", "--nd", "4", "--seeds", "1"),
            ("simulate", "det", "--nd", "4", "--L", "40", "--seeds", "1"),
            ("simulate", "zf", "--power", "2^126", "--L", "64", "--seeds", "1"),
            ("simulate", "soft", "--power", "2^1000", "--L", "64", "--seeds", "1"),
        ],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing" / "out.txt")
        code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        if "--eps-prime" in argv:
            assert "eps_prime" in err
        if "--L" in argv and int(argv[argv.index("--L") + 1]) < 1:
            assert "--L" in err
        if "1025" in argv:
            assert "n_d = 1025" in err
        if "--nd" in argv and argv[argv.index("--nd") + 1] == "4":
            assert "n_d must be odd and >= 3, got 4" in err
        if "1e300" in argv:
            assert "beyond what the simulation supports" in err
        if "1000000000000000000" in argv:
            assert "out of memory" in err
        if "2^126" in argv or "2^1000" in argv:
            assert "more than 62 bits per real dimension" in err
        for flag in ("--rd", "--rf"):
            if flag in argv and argv[argv.index(flag) + 1] == "inf":
                assert f"r_{flag[3]} must be finite, got inf" in err


def _flag(name, values):
    """``[name, value]`` for a drawn value, or nothing (the flag is left out)."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _mostly(valid, odd):
    """Draws from ``valid``, or from ``odd`` for one value of ``i`` in eight."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 7 else valid)


_ODD_FLOAT = st.one_of(
    st.sampled_from(["-1", "nan", "inf", "-inf", "x", ""]), st.floats().map(repr)
)
_MU = _mostly(st.sampled_from(["0", "0.25", "0.5", "1"]) | st.floats(0, 1).map(repr), _ODD_FLOAT)
_RATE = _mostly(st.sampled_from(["0", "0.5", "1", "2"]) | st.floats(0, 4).map(repr), _ODD_FLOAT)


def _grid(values, ranges):
    return _mostly(
        st.lists(values, min_size=1, max_size=3).map(",".join) | st.sampled_from(ranges),
        st.sampled_from(["0:1:0.3", "1:0:0.5", "0:1:0", "0:nan:0.5", "0:1", ",", "x"]),
    )


_MU_GRID = _grid(_MU, ["0:1:0.25", "0.5:1:0.125"])
_RATE_GRID = _grid(_RATE, ["0:2:0.5", "1:3:1"])
_POWER_STEP = st.integers(2, 24).map(lambda k: f"2^{k}")
_POWER = _mostly(
    _POWER_STEP | st.lists(_POWER_STEP, min_size=2, max_size=3).map(",".join),
    st.sampled_from(["0", "1", "2", "nan", "inf", "2^2000", "-8^0.5", "2^x", "2^8,,2^9"]),
)
# Argvs of every command, mostly valid, with sizes bounded so that a drawn
# simulate run takes milliseconds: seeds <= 2, L <= 64, uses <= 4,
# n_d in {3, 5} and power <= 2^24.  Multiples of 4 give the even lengths
# that half caching needs.
_ARGV = st.one_of(
    st.tuples(
        st.just(["ndt"]),
        _MU.map(lambda v: ["--mu", v]),
        _RATE.map(lambda v: ["--rf", v]),
        _RATE.map(lambda v: ["--rd", v]),
    ),
    st.tuples(
        st.just(["sweep"]),
        _MU_GRID.map(lambda v: ["--mu", v]),
        _RATE_GRID.map(lambda v: ["--rf", v]),
        _RATE_GRID.map(lambda v: ["--rd", v]),
        _flag("--format", _mostly(st.sampled_from(["csv", "json"]), st.just("xml"))),
    ),
    st.tuples(
        st.sampled_from(["det", "ia", "zf", "soft"]).map(lambda s: ["simulate", s]),
        _flag("--nd", _mostly(st.sampled_from([3, 5]), st.sampled_from([-1, 0, 1, 4, "x"]))),
        _flag("--rd", _RATE),
        _flag("--rf", _RATE),
        _mostly(st.integers(1, 16).map(lambda k: 4 * k) | st.integers(1, 64), st.integers(-4, 0))
        .map(lambda v: ["--L", str(v)]),
        _flag("--power", _POWER),
        _flag("--eps-prime", _mostly(st.floats(0, 2).map(repr), _ODD_FLOAT)),
        _mostly(st.integers(1, 2), st.integers(-2, 0)).map(lambda v: ["--seeds", str(v)]),
        _mostly(st.integers(1, 4), st.integers(-1, 0)).map(lambda v: ["--uses", str(v)]),
        st.sampled_from([[], ["--noiseless"]]),
        _flag("--power-mode", _mostly(st.sampled_from(["peak", "average"]), st.just("mean"))),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


class TestArgvProperty:
    @settings(max_examples=150, deadline=None)
    @given(argv=_ARGV)
    def test_every_command_exits_0_or_2_with_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


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
