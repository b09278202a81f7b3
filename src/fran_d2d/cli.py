"""Command-line front end: closed-form queries, sweeps, simulations, checks.

Subcommands:

* ``ndt``      print regime, optimum, bound and achieving mix for one point
* ``sweep``    grid evaluation to CSV or JSON (deterministic byte-for-byte)
* ``simulate`` run a delivery scheme over seeds and report against its
  closed-form reference
* ``verify``   run the whole invariant suite at desk scale

Power flags accept ``2^k`` notation.  Infinite delivery times serialize as
the string ``inf`` in CSV and as null plus an ``infinite`` marker in JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import det_xchannel, fran_schemes, ndt_formulas, real_ia
from .model import LatencyBreakdown, SystemParams, draw_csi, ndt_from_latency

SWEEP_SCHEMA = "fran2x2-sweep/1"
SIM_SCHEMA = "fran2x2-simulate/1"
CSV_HEADER = "mu,rf,rd,regime,ndt_min,ndt_lower,ndt_achievable,mix"


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the sweep subcommand."""

    mu_grid: tuple[float, ...]
    rf_grid: tuple[float, ...]
    rd_grid: tuple[float, ...]
    seeds: tuple[int, ...] = ()
    out_path: str = "-"
    fmt: str = "csv"

    def __post_init__(self) -> None:
        for name in ("mu_grid", "rf_grid", "rd_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must not be empty")
        if any(not 0.0 <= m <= 1.0 for m in self.mu_grid):
            raise ValueError("mu grid values must lie in [0, 1]")
        if any(r < 0.0 for r in self.rf_grid + self.rd_grid):
            raise ValueError("rate grid values must be >= 0")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt}")


def parse_power(text: str) -> float:
    """Parse a power flag; SNR ladders are exponential, so 2^k is accepted."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        try:
            value = float(base) ** float(exp)
        except OverflowError:
            raise ValueError(f"power {text!r} overflows a float") from None
        if isinstance(value, complex):  # negative base, fractional exponent
            raise ValueError(f"power {text!r} is not a real number")
        return value
    return float(text)


def parse_power_ladder(text: str) -> list[float]:
    """Parse a comma-separated list of power flags."""
    try:
        return [parse_power(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a grid flag: single value, comma list, or start:stop:step."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = round((stop - start) / step)
        if abs(start + count * step - stop) > 1e-9:
            raise ValueError(f"step does not divide the range in {text!r}")
        return tuple(round(start + k * step, 10) for k in range(count + 1))
    return tuple(float(p) for p in text.split(","))


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return format(v, ".10g")


def _mix_to_str(mix: fran_schemes.SchemeMix) -> str:
    if not mix.components:
        return "infeasible"
    return ";".join(f"{c.scheme}:{format(c.fraction, '.6g')}" for c in mix.components)


def _mix_to_json(mix: fran_schemes.SchemeMix) -> list[dict]:
    return [
        {"scheme": c.scheme, "mu_corner": c.mu_corner, "fraction": c.fraction}
        for c in mix.components
    ]


def _evaluate_point(mu: float, rf: float, rd: float) -> dict:
    params = SystemParams(mu=mu, r_f=rf, r_d=rd)
    mix, achievable = fran_schemes.best_achievable(params)
    return {
        "mu": mu,
        "rf": rf,
        "rd": rd,
        "regime": ndt_formulas.classify_regime(params).value,
        "ndt_min": ndt_formulas.minimum_ndt(params),
        "ndt_lower": ndt_formulas.lower_bound(params),
        "ndt_achievable": achievable,
        "mix": mix,
    }


def cmd_ndt(args: argparse.Namespace) -> int:
    try:
        record = _evaluate_point(args.mu, args.rf, args.rd)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"mu={_fmt_value(record['mu'])} rf={_fmt_value(record['rf'])} "
        f"rd={_fmt_value(record['rd'])} regime={record['regime']} "
        f"ndt_min={_fmt_value(record['ndt_min'])} "
        f"ndt_lower={_fmt_value(record['ndt_lower'])} "
        f"mix={_mix_to_str(record['mix'])}"
    )
    return 0


def render_sweep(spec: SweepSpec) -> str:
    rows = []
    for mu in spec.mu_grid:
        for rf in spec.rf_grid:
            for rd in spec.rd_grid:
                rows.append(_evaluate_point(mu, rf, rd))

    if spec.fmt == "csv":
        lines = [f"# schema: {SWEEP_SCHEMA}", CSV_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        _fmt_value(r["mu"]),
                        _fmt_value(r["rf"]),
                        _fmt_value(r["rd"]),
                        r["regime"],
                        _fmt_value(r["ndt_min"]),
                        _fmt_value(r["ndt_lower"]),
                        _fmt_value(r["ndt_achievable"]),
                        _mix_to_str(r["mix"]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    out_rows = []
    for r in rows:
        infinite = [k for k in ("ndt_min", "ndt_lower", "ndt_achievable") if math.isinf(r[k])]
        out_rows.append(
            {
                "mu": r["mu"],
                "rf": r["rf"],
                "rd": r["rd"],
                "regime": r["regime"],
                "ndt_min": None if math.isinf(r["ndt_min"]) else r["ndt_min"],
                "ndt_lower": None if math.isinf(r["ndt_lower"]) else r["ndt_lower"],
                "ndt_achievable": None
                if math.isinf(r["ndt_achievable"])
                else r["ndt_achievable"],
                "mix": _mix_to_json(r["mix"]),
                "infinite": infinite,
            }
        )
    doc = {"schema": SWEEP_SCHEMA, "seeds": list(spec.seeds), "rows": out_rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str) -> int:
    """Write to stdout for "-", else to ``path``; exit code 2 if that fails."""
    if path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = SweepSpec(
            mu_grid=parse_grid(args.mu),
            rf_grid=parse_grid(args.rf),
            rd_grid=parse_grid(args.rd),
            seeds=tuple(range(args.seeds)) if args.seeds else (),
            out_path=args.out,
            fmt=args.format,
        )
        text = render_sweep(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write_output(text, spec.out_path)


def _simulate_det(args) -> dict:
    ref = ndt_formulas.det_ndt(args.nd, args.rd)
    per_seed = []
    for seed in range(args.seeds):
        rng = np.random.default_rng([seed, 0xDE7])
        pa = rng.integers(0, 2, size=args.L, dtype=np.uint8)
        pb = rng.integers(0, 2, size=args.L, dtype=np.uint8)
        res = det_xchannel.run_det_delivery(
            pa, pb, det_xchannel.DetConfig(args.nd), args.rd
        )
        exact = bool(np.array_equal(res.decoded_a, pa) and np.array_equal(res.decoded_b, pb))
        per_seed.append(
            {
                "seed": seed,
                "exact": exact,
                "t_f": res.latency.t_f,
                "t_e": res.latency.t_e,
                "t_d": res.latency.t_d,
                "ndt_estimate": res.ndt_estimate,
            }
        )
    return {
        "reference": {"name": f"det_ndt({args.nd}, {args.rd:g})", "value": ref},
        "per_seed": per_seed,
    }


def _simulate_ia(args) -> dict:
    ref = ndt_formulas.delta_nd(args.nd, args.rd)
    per_seed = []
    for seed in range(args.seeds):
        rep = real_ia.run_ia_delivery(
            seed=seed,
            n_d=args.nd,
            eps_prime=args.eps_prime,
            power=args.power[0],
            r_d=args.rd,
            n_uses=args.uses,
            noiseless=args.noiseless,
            power_mode=args.power_mode,
        )
        per_seed.append(
            {
                "seed": seed,
                "q": rep.config.q,
                "error_rate": rep.symbol_error_rate,
                "exact_demod": rep.exact_demod,
                "t_f": rep.latency.t_f,
                "t_e": rep.latency.t_e,
                "t_d": rep.latency.t_d,
                "ndt_estimate": rep.ndt_estimate,
            }
        )
    return {
        "reference": {"name": f"delta_nd({args.nd}, {args.rd:g})", "value": ref},
        "per_seed": per_seed,
    }


def _simulate_zf(args) -> dict:
    per_seed = []
    for seed in range(args.seeds):
        csi = draw_csi(seed)
        ladder = []
        for power in args.power:
            report, ndt = fran_schemes.cache_zf_delivery(csi, args.L, power)
            ladder.append(
                {
                    "power": power,
                    "ndt": ndt,
                    "ndt_estimate": report.ndt_estimate,
                    "leakage": report.leakage,
                }
            )
        per_seed.append({"seed": seed, "ladder": ladder})
    return {"reference": {"name": "cache_zf", "value": 1.0}, "per_seed": per_seed}


def _simulate_soft(args) -> dict:
    per_seed = []
    ref = 1.0 + 1.0 / args.rf if args.rf > 0 else math.inf
    for seed in range(args.seeds):
        csi = draw_csi(seed)
        report, ndt = fran_schemes.soft_transfer_delivery(
            csi, args.L, args.power[0], args.rf, seed=seed
        )
        per_seed.append(
            {
                "seed": seed,
                "ndt": ndt,
                "ndt_estimate": report.ndt_estimate,
                "sinr": report.sinr,
                "quant_noise_power": report.quant_noise_power,
            }
        )
    return {"reference": {"name": "soft_transfer", "value": ref}, "per_seed": per_seed}


# Each scheme's runner and the flags it reads, which the output echoes.
SIMULATORS = {
    "det": (_simulate_det, ("nd", "rd", "L", "seeds")),
    "ia": (
        _simulate_ia,
        ("nd", "rd", "eps_prime", "power", "uses", "noiseless", "power_mode", "seeds"),
    ),
    "zf": (_simulate_zf, ("L", "power", "seeds")),
    "soft": (_simulate_soft, ("rf", "L", "power", "seeds")),
}


def cmd_simulate(args: argparse.Namespace) -> int:
    runner, flags = SIMULATORS[args.scheme]
    if args.scheme in ("ia", "soft") and len(args.power) > 1:
        print(
            f"error: simulate {args.scheme} takes one --power value, got {len(args.power)}",
            file=sys.stderr,
        )
        return 2
    try:
        body = runner(args)
    except (ValueError, real_ia.ConstellationInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    estimates = [
        row["ndt_estimate"]
        for row in body["per_seed"]
        if "ndt_estimate" in row and math.isfinite(body["reference"]["value"])
    ]
    summary: dict = {}
    if estimates:
        ref = body["reference"]["value"]
        summary = {
            "mean_ndt_estimate": sum(estimates) / len(estimates),
            "max_abs_deviation": max(abs(e - ref) for e in estimates),
        }
    doc = {
        "schema": SIM_SCHEMA,
        "scheme": args.scheme,
        "flags": {k: getattr(args, k) for k in flags},
        **body,
        "summary": summary,
    }
    text = json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"
    return _write_output(text, args.out)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

VERIFY_GRID_MU = tuple(round(0.05 * k, 10) for k in range(21))
VERIFY_GRID_RATE = tuple(round(0.25 * k, 10) for k in range(13))


def _params_grid():
    for mu in VERIFY_GRID_MU:
        for rf in VERIFY_GRID_RATE:
            for rd in VERIFY_GRID_RATE:
                yield SystemParams(mu=mu, r_f=rf, r_d=rd)


def _ndt_close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def check_csi_sampling(faults=frozenset()) -> None:
    for seed in range(25):
        c1, c2 = draw_csi(seed), draw_csi(seed)
        assert c1 == c2, f"seed {seed} not deterministic"
        assert abs(c1.determinant) > 0
    assert draw_csi(7) != draw_csi(8), "distinct seeds should differ"


def check_ndt_normalization(faults=frozenset()) -> None:
    lat = LatencyBreakdown(10.0, 50.0, 15.0)
    assert abs(ndt_from_latency(lat, 1000, 2.0**20) - 1.5) < 1e-12


def check_tightness(faults=frozenset()) -> None:
    for params in _params_grid():
        val = ndt_formulas.minimum_ndt(params)
        if "formula_branch" in faults and (
            ndt_formulas.classify_regime(params) is ndt_formulas.Regime.FRONTHAUL_DOMINANT
        ):
            val = 1.0 + (2.0 - params.mu) / params.r_f  # off-by-one numerator
        low = ndt_formulas.lower_bound(params)
        _, ach = fran_schemes.best_achievable(params)
        if not (_ndt_close(val, low) and _ndt_close(val, ach)):
            raise AssertionError(
                f"tightness broken at mu={params.mu} rf={params.r_f} rd={params.r_d}: "
                f"min={val} lower={low} achievable={ach}"
            )


def check_floor_and_monotonicity(faults=frozenset()) -> None:
    for params in _params_grid():
        val = ndt_formulas.minimum_ndt(params)
        assert val >= 1.0 - 1e-12, f"floor violated at {params}"
    for rf in VERIFY_GRID_RATE:
        for rd in VERIFY_GRID_RATE:
            vals = [
                ndt_formulas.minimum_ndt(SystemParams(mu=m, r_f=rf, r_d=rd))
                for m in VERIFY_GRID_MU
            ]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), "not monotone in mu"
    for mu in VERIFY_GRID_MU:
        for rd in VERIFY_GRID_RATE:
            vals = [
                ndt_formulas.minimum_ndt(SystemParams(mu=mu, r_f=rf, r_d=rd))
                for rf in VERIFY_GRID_RATE
            ]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), "not monotone in rf"
        for rf in VERIFY_GRID_RATE:
            vals = [
                ndt_formulas.minimum_ndt(SystemParams(mu=mu, r_f=rf, r_d=rd))
                for rd in VERIFY_GRID_RATE
            ]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), "not monotone in rd"


def check_convexity_in_mu(faults=frozenset()) -> None:
    mus = [round(0.01 * k, 10) for k in range(101)]
    for rf in (0.0, 0.25, 0.5, 1.0, 2.0):
        for rd in (0.0, 0.5, 2.0):
            vals = [
                ndt_formulas.minimum_ndt(SystemParams(mu=m, r_f=rf, r_d=rd)) for m in mus
            ]
            for i in range(1, len(vals) - 1):
                lhs = vals[i - 1] + vals[i + 1]
                rhs = 2.0 * vals[i]
                assert lhs >= rhs - 1e-9 or math.isinf(rhs), (
                    f"midpoint convexity broken at mu={mus[i]} rf={rf} rd={rd}"
                )


def check_d2d_thresholds(faults=frozenset()) -> None:
    for params in _params_grid():
        base = ndt_formulas.minimum_ndt(
            SystemParams(mu=params.mu, r_f=params.r_f, r_d=0.0)
        )
        val = ndt_formulas.minimum_ndt(params)
        if params.r_d <= max(1.0, params.r_f):
            assert _ndt_close(val, base), f"D2D should be irrelevant at {params}"
        elif 0.0 < params.mu < 1.0 and math.isfinite(base):
            assert val < base - 1e-12, f"D2D should strictly help at {params}"
    for mu in (0.55, 0.75, 0.95):
        for rd in (1.25, 2.0, 3.0):
            vals = {
                ndt_formulas.minimum_ndt(SystemParams(mu=mu, r_f=rf, r_d=rd))
                for rf in VERIFY_GRID_RATE
                if rd > max(1.0, rf)
            }
            assert len(vals) == 1, f"NDT should not depend on rf at mu={mu}, rd={rd}"


def check_branch_boundaries(faults=frozenset()) -> None:
    for mu in VERIFY_GRID_MU:
        for rd in (0.0, 0.5, 1.0):
            a = ndt_formulas._branch_both_small(mu, 1.0)
            b = ndt_formulas._branch_fronthaul_dominant(mu, 1.0)
            assert _ndt_close(a, b), f"rf=1 boundary mismatch at mu={mu}, rd={rd}"
        for rf in (0.0, 0.5, 1.0):
            a = ndt_formulas._branch_both_small(mu, rf)
            b = ndt_formulas._branch_d2d_dominant(mu, rf, 1.0)
            assert _ndt_close(a, b), f"rd=1 boundary mismatch at mu={mu}, rf={rf}"
        for r in (1.0, 1.5, 3.0):
            a = ndt_formulas._branch_fronthaul_dominant(mu, r)
            b = ndt_formulas._branch_d2d_dominant(mu, r, r)
            assert _ndt_close(a, b), f"rf=rd={r} boundary mismatch at mu={mu}"


def check_layer_limits(faults=frozenset()) -> None:
    for rd in (0.5, 1.0, 2.0):
        target = ndt_formulas.delta_x(rd)
        prev = math.inf
        for nd in (3, 5, 11, 21, 41):
            dn = ndt_formulas.delta_nd(nd, rd)
            assert dn <= prev + 1e-12, "delta_nd must be nonincreasing in n_d"
            assert abs(dn - target) <= 4.0 / (nd - 1), "delta_nd gap bound violated"
            assert abs(ndt_formulas.det_ndt(nd, rd) - target) <= 2.0 / nd, (
                "det gap bound violated"
            )
            prev = dn
        assert ndt_formulas.zf_compress_forward_ndt(rd) > target


def check_det_exhaustive(faults=frozenset()) -> None:
    cfg = det_xchannel.DetConfig(3)
    for code1 in range(8):
        for code2 in range(8):
            x1 = np.array([(code1 >> k) & 1 for k in range(3)], dtype=np.uint8)
            x2 = np.array([(code2 >> k) & 1 for k in range(3)], dtype=np.uint8)
            y1, y2 = det_xchannel.det_channel(x1, x2, cfg)
            v1, v2 = det_xchannel.build_d2d_messages(y1, y2, cfg)
            d1 = det_xchannel.sic_decode(y1, v2, cfg, ue=1)
            d2 = det_xchannel.sic_decode(y2, v1, cfg, ue=2)
            want1 = np.array([x1[0], x2[1], x1[2]], dtype=np.uint8)
            want2 = np.array([x2[0], x1[1], x2[2]], dtype=np.uint8)
            assert np.array_equal(d1, want1) and np.array_equal(d2, want2)


def check_det_random_runs(faults=frozenset()) -> None:
    rng = np.random.default_rng(2024)
    for nd in (5, 11, 21):
        cfg = det_xchannel.DetConfig(nd)
        length = 10 * (nd - 1)
        for _ in range(40):
            pa = rng.integers(0, 2, size=length, dtype=np.uint8)
            pb = rng.integers(0, 2, size=length, dtype=np.uint8)
            res = det_xchannel.run_det_delivery(pa, pb, cfg, r_d=1.5)
            assert np.array_equal(res.decoded_a, pa)
            assert np.array_equal(res.decoded_b, pb)
            assert res.d2d_bits_per_use == (nd - 1) // 2
            assert abs(res.ndt_estimate - ndt_formulas.det_ndt(nd, 1.5)) < 1e-12
            assert res.latency.t_d * 1.5 * nd >= res.latency.t_e * (nd - 1) / 2 - 1e-9


def check_alignment(faults=frozenset()) -> None:
    for seed in range(20):
        csi = draw_csi(seed)
        for nd in (3, 5, 7):
            gains = real_ia.precoder_gains(csi, nd)
            if "precoder_sign" in faults:
                g = gains.g.copy()
                g[0, 1] = -g[0, 1]
                gains = real_ia.PrecoderGains(n_d=nd, g=g)
            resid = real_ia.alignment_residual(gains, csi)
            if resid > 1e-10:
                raise AssertionError(
                    f"alignment residual {resid:g} at seed {seed}, n_d={nd}"
                )


def check_injectivity(faults=frozenset()) -> None:
    for seed in range(50):
        csi = draw_csi(seed)
        gains = real_ia.precoder_gains(csi, 3)
        cfg = real_ia.config_from_q(csi, 3, 4, eps_prime=0.5)
        for ue in (1, 2):
            d = real_ia.min_distance(gains, csi, cfg, ue)
            assert d > 1e-9 * cfg.a, f"near-coincident points at seed {seed}, ue {ue}"


def check_ia_zero_noise(faults=frozenset()) -> None:
    rng = np.random.default_rng(7)
    for seed in range(20):
        csi = draw_csi(seed)
        for nd, q in ((3, 4), (5, 2)):
            gains = real_ia.precoder_gains(csi, nd)
            cfg = real_ia.config_from_q(csi, nd, q, eps_prime=0.5)
            demods = tuple(
                real_ia.AlignedDemodulator(gains, csi, cfg, ue) for ue in (1, 2)
            )
            a_idx, b_idx = rng.integers(0, q, size=(2, 1, nd))
            _, resolved, in_range = real_ia.transmit(gains, csi, cfg, demods, a_idx, b_idx)
            assert in_range.all()
            for ue in (1, 2):
                truth = real_ia._resolved_truth(a_idx, b_idx, ue)
                assert np.array_equal(resolved[ue - 1], truth)


def check_ia_power_and_latency(faults=frozenset()) -> None:
    for seed in range(10):
        rep = real_ia.run_ia_delivery(
            seed, n_d=3, eps_prime=0.5, power=2.0**16, r_d=2.0, n_uses=8, noiseless=True
        )
        assert rep.symbol_error_rate == 0.0
        assert rep.peak_power_ratio <= 1.0 + 1e-9
        cfg = rep.config
        eps_hat = (math.log2(cfg.power) / math.log2(cfg.q) - (cfg.n_d + 1)) / 2.0
        expected = ((cfg.n_d + 1 + 2 * eps_hat) / (cfg.n_d - 1)) * (
            1.0
            + (math.log2(2 * cfg.q) / math.log2(cfg.power)) * (cfg.n_d - 1) / (2.0 * 2.0)
        )
        assert abs(rep.ndt_estimate - expected) < 1e-9 * expected


def check_scheme_envelope(faults=frozenset()) -> None:
    for params in _params_grid():
        mix, val = fran_schemes.best_achievable(params)
        corners = [
            c for c in fran_schemes._corner_values(params) if math.isfinite(c[2])
        ]
        for scheme, m, v in corners:
            if m == params.mu:
                assert val <= v + 1e-12, "envelope above its own corner"
        for i, (s1, m1, v1) in enumerate(corners):
            for s2, m2, v2 in corners[i + 1 :]:
                if m1 < params.mu < m2:
                    w = (m2 - params.mu) / (m2 - m1)
                    assert val <= w * v1 + (1 - w) * v2 + 1e-12, "envelope above a chord"
        if params.r_d > max(1.0, params.r_f) and params.mu >= 0.5:
            assert not mix.uses_fronthaul(), (
                f"fronthaul scheme selected needlessly at {params}"
            )


def check_cache_budgets(faults=frozenset()) -> None:
    for mu in fran_schemes.CORNER_MUS:
        placement = fran_schemes.cache_placement(mu, n_files=4, file_bits=1000)
        for en in (0, 1):
            assert placement.cached_bits(en) <= placement.capacity_bits + 1e-9


ALL_CHECKS = (
    ("model.csi_sampling", check_csi_sampling),
    ("model.ndt_normalization", check_ndt_normalization),
    ("formulas.tightness", check_tightness),
    ("formulas.floor_monotonicity", check_floor_and_monotonicity),
    ("formulas.convexity_in_mu", check_convexity_in_mu),
    ("formulas.d2d_thresholds", check_d2d_thresholds),
    ("formulas.branch_boundaries", check_branch_boundaries),
    ("formulas.layer_limits", check_layer_limits),
    ("det.exhaustive_small", check_det_exhaustive),
    ("det.random_runs", check_det_random_runs),
    ("ia.alignment", check_alignment),
    ("ia.injectivity", check_injectivity),
    ("ia.zero_noise_pipeline", check_ia_zero_noise),
    ("ia.power_and_latency", check_ia_power_and_latency),
    ("schemes.envelope", check_scheme_envelope),
    ("schemes.cache_budgets", check_cache_budgets),
)


def run_verification(faults: frozenset[str] = frozenset()) -> list[tuple[str, str]]:
    """Run every check; returns (name, failure message) for the failed ones."""
    failures = []
    for name, check in ALL_CHECKS:
        try:
            check(faults)
        except AssertionError as exc:
            failures.append((name, str(exc)))
    return failures


def cmd_verify(args: argparse.Namespace) -> int:
    faults = frozenset(args.fault or ())
    failures = dict(run_verification(faults))
    for name, _ in ALL_CHECKS:
        status = "FAIL" if name in failures else "PASS"
        line = f"{status} {name}"
        if name in failures:
            line += f"  ({failures[name]})"
        print(line)
    return 1 if failures else 0


class _UsageError(Exception):
    """A command line that the argument parser rejected."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors become one stderr line in ``main``."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fran-d2d",
        description="Delivery-time bounds and scheme simulations for the 2x2 "
        "cache-aided network with D2D cooperation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ndt = sub.add_parser("ndt", help="evaluate one (mu, rf, rd) point")
    p_ndt.add_argument("--mu", type=float, required=True)
    p_ndt.add_argument("--rf", type=float, required=True)
    p_ndt.add_argument("--rd", type=float, required=True)
    p_ndt.set_defaults(func=cmd_ndt)

    p_sweep = sub.add_parser("sweep", help="evaluate a grid to CSV/JSON")
    p_sweep.add_argument("--mu", required=True, help="value, list, or start:stop:step")
    p_sweep.add_argument("--rf", required=True)
    p_sweep.add_argument("--rd", required=True)
    p_sweep.add_argument("--seeds", type=int, default=0)
    p_sweep.add_argument("--out", default="-")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run a delivery scheme over seeds")
    p_sim.add_argument("scheme", choices=("det", "ia", "zf", "soft"))
    p_sim.add_argument("--nd", type=int, default=5)
    p_sim.add_argument("--rd", type=float, default=1.0)
    p_sim.add_argument("--rf", type=float, default=1.0)
    p_sim.add_argument("--L", type=int, default=4000)
    p_sim.add_argument(
        "--power", type=parse_power_ladder,
        default=[2.0**20], help="power budget(s); accepts 2^k and comma ladders",
    )
    p_sim.add_argument("--eps-prime", dest="eps_prime", type=float, default=0.5)
    p_sim.add_argument("--seeds", type=int, default=10)
    p_sim.add_argument("--uses", type=int, default=16)
    p_sim.add_argument("--noiseless", action="store_true")
    p_sim.add_argument("--power-mode", choices=("peak", "average"), default="peak")
    p_sim.add_argument("--out", default="-")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument(
        "--fault",
        action="append",
        choices=("precoder_sign", "formula_branch"),
        help="inject a known defect (testing hook for the suite itself)",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
