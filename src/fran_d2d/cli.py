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
from .model import (
    LatencyBreakdown, SystemParams, _check_cache_size, _check_rates, draw_csi, ndt_from_latency,
)

SWEEP_SCHEMA = "fran2x2-sweep/1"
SIM_SCHEMA = "fran2x2-simulate/2"
CSV_HEADER = "mu,rf,rd,regime,ndt_min,ndt_lower,ndt_achievable,mix"


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the sweep subcommand."""

    mu_grid: tuple[float, ...]
    rf_grid: tuple[float, ...]
    rd_grid: tuple[float, ...]
    fmt: str = "csv"

    def __post_init__(self) -> None:
        for name in ("mu_grid", "rf_grid", "rd_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must not be empty")
        _check_cache_size(self.mu_grid)
        _check_rates(r_f=self.rf_grid, r_d=self.rd_grid)
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
    """Parse a grid flag: single value, comma list, or start:stop:step (rounded to 10 decimals)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        steps = (stop - start) / step
        if not math.isfinite(steps):
            raise ValueError(f"range {text!r} has no finite number of steps")
        count = round(steps)
        if abs(start + count * step - stop) > 1e-9:
            raise ValueError(f"step does not divide the range in {text!r}")
        values = tuple(round(start + k * step, 10) for k in np.arange(count + 1).tolist())
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError(f"range {text!r} has values that agree to 10 decimals")
        return values
    return tuple(float(p) for p in text.split(","))


_NDT_KEYS = ("ndt_min", "ndt_lower", "ndt_achievable")
_REGIME_NAMES = np.array([r.value for r in ndt_formulas.REGIMES], dtype=object)


def _fmt_values(values: np.ndarray) -> list[str]:
    """CSV text of every value: ``%.10g``, with ``inf`` for both infinities.

    All values go through one ``%`` call; its ``-inf`` cannot be part of
    any other value's text.
    """
    n = len(values)
    text = ("%.10g\n" * n) % tuple(values.tolist())
    return text.replace("-inf", "inf").split("\n")[:n]


def _json_values(values: np.ndarray) -> list[str]:
    """JSON text of every value as ``json.dumps`` writes it, with null for both infinities."""
    n = len(values)
    text = "\n".join(map(float.__repr__, values.tolist()))
    return text.replace("-inf", "null").replace("inf", "null").replace("nan", "NaN").split("\n")[:n]


def _mix_strs(*columns: np.ndarray) -> list[str]:
    """CSV text of mixes given as (scheme, scheme, fraction, fraction) columns."""
    texts = []
    for s0, s1, f0, f1 in zip(*(c.tolist() for c in columns)):
        parts = [
            f"{fran_schemes.SCHEMES[s].name}:{format(f, '.6g')}"
            for s, f in ((s0, f0), (s1, f1))
            if s >= 0
        ]
        texts.append(";".join(parts) or "infeasible")
    return texts


def _mix_jsons(*columns: np.ndarray) -> list[str]:
    """JSON text of mixes given as (scheme, mu_corner, fraction) column pairs.

    Each text is indented to stand as the ``mix`` value of a sweep row.
    """
    mixes = [
        [
            {"scheme": fran_schemes.SCHEMES[s].name, "mu_corner": m, "fraction": f}
            for s, m, f in ((s0, m0, f0), (s1, m1, f1))
            if s >= 0
        ]
        for s0, s1, m0, m1, f0, f1 in zip(*(c.tolist() for c in columns))
    ]
    return [_reindent(json.dumps(mix, indent=2, sort_keys=True), 6) for mix in mixes]


def _reindent(text: str, width: int) -> str:
    """``text`` with every line after the first moved right by ``width`` spaces."""
    return text.replace("\n", "\n" + " " * width)


def _once_per_value(columns: list[np.ndarray], render) -> list:
    """Text of every row of ``columns``, rendering each distinct row once.

    ``columns`` are equal-length 1-D arrays of 64-bit values, compared bit
    for bit (0.0 and -0.0 stay apart).  ``render`` takes the columns of the
    distinct rows and returns their texts.  The bit patterns of a lone
    column are ordered by a plain ``np.argsort``, which need not be stable
    as all rows of a group render alike, and several columns by one
    ``np.lexsort``; a comparison of neighbours then numbers the groups.
    """
    bits = [np.ascontiguousarray(c).view(np.int64) for c in columns]
    order = np.argsort(bits[0]) if len(bits) == 1 else np.lexsort(bits)
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = False
    for column in bits:
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.cumsum(new, dtype=np.intp) - 1
    first = order[new]
    rendered = np.empty(len(first), dtype=object)
    rendered[:] = render(*(c[first] for c in columns))
    return rendered.take(ids).tolist()


def _loop_order(axes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (mu, rf, rd) columns of a grid from its three axes, 1-D arrays.

    Rows run in (mu, rf, rd) loop order, so the last axis varies fastest.
    """
    mu, rf, rd = axes
    rf_rd = len(rf) * len(rd)
    return mu.repeat(rf_rd), np.tile(rf.repeat(len(rd)), len(mu)), np.tile(rd, len(mu) * len(rf))


def _evaluate_grid(mu_grid, rf_grid, rd_grid) -> dict:
    """Every closed form over the grid mu_grid x rf_grid x rd_grid, one call per form.

    The points run in (mu, rf, rd) loop order; ``axes`` keeps the three
    axes as float64 arrays.
    """
    axes = tuple(np.asarray(a, dtype=np.float64) for a in (mu_grid, rf_grid, rd_grid))
    mu, rf, rd = _loop_order(axes)
    mix = fran_schemes.best_achievable_grid(mu, rf, rd)
    return {
        "axes": axes,
        "regime": ndt_formulas.classify_regime_grid(rf, rd),
        "ndt_min": ndt_formulas.minimum_ndt_grid(mu, rf, rd),
        "ndt_lower": ndt_formulas.lower_bound_grid(mu, rf, rd),
        "ndt_achievable": mix.ndt,
        "mix": mix,
    }


def _text_columns(points: dict, value_text, regime_text, mix_text, mix_fields) -> dict:
    """The text of every column, each axis value and distinct row formatted once.

    ``value_text`` formats an array of floats, ``regime_text`` holds the
    text of each regime, and ``mix_text`` renders the distinct mixes from
    the ``MixGrid`` fields named in ``mix_fields``.
    """
    axes = _loop_order([np.array(value_text(a), dtype=object) for a in points["axes"]])
    columns = {k: a.tolist() for k, a in zip(("mu", "rf", "rd"), axes)}
    # The three delivery times mostly agree, so they share one formatting pass.
    ndts = _once_per_value([np.concatenate([points[k] for k in _NDT_KEYS])], value_text)
    n = len(ndts) // len(_NDT_KEYS)
    columns.update((k, ndts[i * n : (i + 1) * n]) for i, k in enumerate(_NDT_KEYS))
    columns["regime"] = regime_text[points["regime"]].tolist()
    mix = points["mix"]
    columns["mix"] = _once_per_value([c for f in mix_fields for c in getattr(mix, f).T], mix_text)
    return columns


def _csv_columns(points: dict) -> dict[str, list[str]]:
    """The CSV text of every column."""
    return _text_columns(points, _fmt_values, _REGIME_NAMES, _mix_strs, ("scheme", "fraction"))


_JSON_KEYS = sorted(("infinite", "mix", "mu", "rf", "rd", "regime", *_NDT_KEYS))
# One sweep row as ``json.dumps(row, indent=2, sort_keys=True)`` writes it
# inside the document's "rows" list, given the JSON text of each value.
_JSON_ROW = "    {\n" + ",\n".join(f'      "{k}": %s' for k in _JSON_KEYS) + "\n    }"
_REGIME_JSON = np.array([json.dumps(r) for r in _REGIME_NAMES], dtype=object)


def _json_rows(points: dict) -> str:
    """The JSON text of every row, joined as the items of the "rows" list."""
    columns = _text_columns(
        points, _json_values, _REGIME_JSON, _mix_jsons, ("scheme", "mu_corner", "fraction")
    )
    # Which delivery times are infinite, as a 3-bit code per row.
    code = np.isinf(np.stack([points[k] for k in _NDT_KEYS])).T @ (1 << np.arange(len(_NDT_KEYS)))
    infinite = [
        _reindent(json.dumps([k for b, k in enumerate(_NDT_KEYS) if c >> b & 1], indent=2), 6)
        for c in range(1 << len(_NDT_KEYS))
    ]
    columns["infinite"] = [infinite[c] for c in code.tolist()]
    return ",\n".join([_JSON_ROW % row for row in zip(*(columns[k] for k in _JSON_KEYS))])


def cmd_ndt(args: argparse.Namespace) -> int:
    try:
        SystemParams(mu=args.mu, r_f=args.rf, r_d=args.rd)
        text = _csv_columns(_evaluate_grid((args.mu,), (args.rf,), (args.rd,)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    keys = ("mu", "rf", "rd", "regime", "ndt_min", "ndt_lower", "mix")
    print(" ".join(f"{k}={text[k][0]}" for k in keys))
    return 0


def render_sweep(spec: SweepSpec) -> str:
    """The whole grid as CSV or JSON text, rows in (mu, rf, rd) loop order.

    The JSON text is what ``json.dumps(doc, indent=2, sort_keys=True)``
    writes, built from per-row templates: each axis value, distinct delivery
    time and distinct mix is encoded once.
    """
    points = _evaluate_grid(spec.mu_grid, spec.rf_grid, spec.rd_grid)

    if spec.fmt == "csv":
        columns = _csv_columns(points)
        lines = [f"# schema: {SWEEP_SCHEMA}", CSV_HEADER]
        lines.extend(map(",".join, zip(*(columns[k] for k in CSV_HEADER.split(",")))))
        return "\n".join(lines) + "\n"

    doc = {"schema": SWEEP_SCHEMA, "seeds": [], "rows": []}
    text = json.dumps(doc, indent=2, sort_keys=True)
    return text.replace('"rows": []', '"rows": [\n' + _json_rows(points) + "\n  ]", 1) + "\n"


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
            fmt=args.format,
        )
        text = render_sweep(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write_output(text, args.out)


def _report_row(rep: fran_schemes.EndToEndReport, **fields) -> dict:
    """A ``simulate`` row: ``fields`` plus the outcome and latency of ``rep``."""
    lat = rep.latency
    return {
        **fields,
        "exact": rep.exact,
        "t_f": lat.t_f,
        "t_e": lat.t_e,
        "t_d": lat.t_d,
        "ndt_estimate": rep.ndt_estimate,
    }


def _simulate_det(args) -> dict:
    ref = ndt_formulas.det_ndt(args.nd, args.rd)
    det_xchannel.DetConfig(args.nd)  # rejects an n_d before 2^n_d can overflow
    params = SystemParams(mu=0.5, r_f=0.0, r_d=args.rd, file_bits=args.L, power=2.0**args.nd)
    return {
        "reference": {"name": f"det_ndt({args.nd}, {args.rd:g})", "value": ref},
        "per_seed": [
            _report_row(fran_schemes.run_end_to_end(params, s, "d2d_det", n_d=args.nd), seed=s)
            for s in range(args.seeds)
        ],
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


def _simulate_zf_like(args) -> dict:
    """Bit-exact cache-aided ZF (``zf``) or soft transfer (``soft``), one row per seed and power."""
    scheme = "soft_transfer" if args.scheme == "soft" else "cache_zf"
    row = fran_schemes.RUNNERS[scheme]
    r_f = args.rf if row.uses_fronthaul else 0.0
    per_seed = []
    for seed in range(args.seeds):
        for power in args.power:
            params = SystemParams(mu=row.mu_corner, r_f=r_f, r_d=0.0, file_bits=args.L, power=power)
            rep = fran_schemes.run_end_to_end(params, seed, scheme)
            per_seed.append(
                _report_row(
                    rep,
                    seed=seed,
                    power=power,
                    mismatched_bits=rep.mismatched_bits,
                    bits_per_use=rep.details["bits_per_use"],
                )
            )
    ref = float(row.ndt(*np.abs([r_f, 0.0])))  # after the runs, which refuse r_f = 0
    return {"reference": {"name": scheme, "value": ref}, "per_seed": per_seed}


# Each scheme's runner and the flags it reads, which the output echoes.
SIMULATORS = {
    "det": (_simulate_det, ("nd", "rd", "L", "seeds")),
    "ia": (
        _simulate_ia,
        ("nd", "rd", "eps_prime", "power", "uses", "noiseless", "power_mode", "seeds"),
    ),
    "zf": (_simulate_zf_like, ("L", "power", "seeds")),
    "soft": (_simulate_zf_like, ("rf", "L", "power", "seeds")),
}


def cmd_simulate(args: argparse.Namespace) -> int:
    runner, flags = SIMULATORS[args.scheme]
    if args.seeds < 1:
        print(f"error: simulate needs --seeds >= 1, got {args.seeds}", file=sys.stderr)
        return 2
    if "L" in flags and args.L < 1:
        print(f"error: simulate needs --L >= 1, got {args.L}", file=sys.stderr)
        return 2
    if args.scheme in ("ia", "soft") and len(args.power) > 1:
        print(
            f"error: simulate {args.scheme} takes one --power value, got {len(args.power)}",
            file=sys.stderr,
        )
        return 2
    try:
        _check_rates(**{f"r_{f[1]}": getattr(args, f) for f in ("rd", "rf") if f in flags})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        body = runner(args)
    except (ValueError, real_ia.ConstellationInfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    ref = body["reference"]["value"]
    summary: dict = {}
    if math.isfinite(ref):
        estimates = [row["ndt_estimate"] for row in body["per_seed"]]
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


def _verify_grid() -> list[np.ndarray]:
    """(mu, rf, rd) arrays over the verify grid, shaped (mu, rf, rd)."""
    return np.meshgrid(VERIFY_GRID_MU, VERIFY_GRID_RATE, VERIFY_GRID_RATE, indexing="ij")


def _ndt_close(a, b, tol: float = 1e-9) -> np.ndarray:
    """Elementwise: infinite values must be equal, finite ones within ``tol``."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf where the infinite test decides
        return np.where(np.isinf(a) | np.isinf(b), a == b, np.abs(a - b) <= tol)


def _raise_first(grid, checks) -> None:
    """Raise for the first grid point, in (mu, rf, rd) loop order, that fails a check.

    ``checks`` holds (ok, message) pairs in the order they apply at one point:
    ``ok`` is a boolean array over the grid and ``message(params, k)`` the
    failure text at flat index ``k``.
    """
    failed = np.logical_or.reduce([~ok for ok, _ in checks])
    if not failed.any():
        return
    k = int(np.flatnonzero(failed)[0])
    mu, rf, rd = (float(g.flat[k]) for g in grid)
    params = SystemParams(mu=mu, r_f=rf, r_d=rd)
    for ok, message in checks:
        if not ok.flat[k]:
            raise AssertionError(message(params, k))


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
    grid = _verify_grid()
    mu, rf, rd = grid
    val = ndt_formulas.minimum_ndt_grid(mu, rf, rd)
    if "formula_branch" in faults:
        regime = ndt_formulas.classify_regime_grid(rf, rd)
        fronthaul = ndt_formulas.REGIMES.index(ndt_formulas.Regime.FRONTHAUL_DOMINANT)
        with np.errstate(divide="ignore"):
            val = np.where(regime == fronthaul, 1.0 + (2.0 - mu) / rf, val)  # off-by-one numerator
    low = ndt_formulas.lower_bound_grid(mu, rf, rd)
    ach = fran_schemes.best_achievable_grid(mu, rf, rd).ndt
    _raise_first(
        grid,
        [
            (
                _ndt_close(val, low) & _ndt_close(val, ach),
                lambda p, k: f"tightness broken at mu={p.mu} rf={p.r_f} rd={p.r_d}: "
                f"min={float(val.flat[k])} lower={float(low.flat[k])} "
                f"achievable={float(ach.flat[k])}",
            )
        ],
    )


def check_floor_and_monotonicity(faults=frozenset()) -> None:
    grid = _verify_grid()
    vals = ndt_formulas.minimum_ndt_grid(*grid)
    _raise_first(grid, [(vals >= 1.0 - 1e-12, lambda p, k: f"floor violated at {p}")])
    assert np.all(vals[:-1] >= vals[1:] - 1e-12), "not monotone in mu"
    in_rf = np.all(vals[:, :-1, :] >= vals[:, 1:, :] - 1e-12, axis=(1, 2))
    in_rd = np.all(vals[:, :, :-1] >= vals[:, :, 1:] - 1e-12, axis=(1, 2))
    for rf_ok, rd_ok in zip(in_rf, in_rd):  # per mu: rf first, then rd
        assert rf_ok, "not monotone in rf"
        assert rd_ok, "not monotone in rd"


def check_convexity_in_mu(faults=frozenset()) -> None:
    mus = [round(0.01 * k, 10) for k in range(101)]
    rfs, rds = (0.0, 0.25, 0.5, 1.0, 2.0), (0.0, 0.5, 2.0)
    rf, rd, mu = np.meshgrid(rfs, rds, mus, indexing="ij")
    vals = ndt_formulas.minimum_ndt_grid(mu, rf, rd)
    lhs = vals[..., :-2] + vals[..., 2:]
    rhs = 2.0 * vals[..., 1:-1]
    broken = np.argwhere(~((lhs >= rhs - 1e-9) | np.isinf(rhs)))
    if broken.size:
        i, j, k = broken[0]
        raise AssertionError(
            f"midpoint convexity broken at mu={mus[k + 1]} rf={rfs[i]} rd={rds[j]}"
        )


def check_d2d_thresholds(faults=frozenset()) -> None:
    grid = _verify_grid()
    mu, rf, rd = grid
    base = ndt_formulas.minimum_ndt_grid(mu, rf, 0.0)
    val = ndt_formulas.minimum_ndt_grid(mu, rf, rd)
    below = rd <= np.maximum(1.0, rf)
    helps = (0.0 < mu) & (mu < 1.0) & np.isfinite(base)
    _raise_first(
        grid,
        [
            (~below | _ndt_close(val, base), lambda p, k: f"D2D should be irrelevant at {p}"),
            (below | ~helps | (val < base - 1e-12), lambda p, k: f"D2D should strictly help at {p}"),
        ],
    )
    mus, rds = (0.55, 0.75, 0.95), (1.25, 2.0, 3.0)
    mu, rd, rf = np.meshgrid(mus, rds, VERIFY_GRID_RATE, indexing="ij")
    vals = ndt_formulas.minimum_ndt_grid(mu, rf, rd)
    above = rd > np.maximum(1.0, rf)
    for i, m in enumerate(mus):
        for j, r in enumerate(rds):
            assert np.unique(vals[i, j][above[i, j]]).size == 1, (
                f"NDT should not depend on rf at mu={m}, rd={r}"
            )


def check_branch_boundaries(faults=frozenset()) -> None:
    mu = np.array(VERIFY_GRID_MU)
    rf_one = _ndt_close(
        ndt_formulas._branch_both_small(mu, 1.0), ndt_formulas._branch_fronthaul_dominant(mu, 1.0)
    )
    rd_one = {
        rf: _ndt_close(
            ndt_formulas._branch_both_small(mu, rf), ndt_formulas._branch_d2d_dominant(mu, rf, 1.0)
        )
        for rf in (0.0, 0.5, 1.0)
    }
    rf_is_rd = {
        r: _ndt_close(
            ndt_formulas._branch_fronthaul_dominant(mu, r),
            ndt_formulas._branch_d2d_dominant(mu, r, r),
        )
        for r in (1.0, 1.5, 3.0)
    }
    for k, m in enumerate(VERIFY_GRID_MU):
        for rd in (0.0, 0.5, 1.0):
            assert rf_one[k], f"rf=1 boundary mismatch at mu={m}, rd={rd}"
        for rf, ok in rd_one.items():
            assert ok[k], f"rd=1 boundary mismatch at mu={m}, rf={rf}"
        for r, ok in rf_is_rd.items():
            assert ok[k], f"rf=rd={r} boundary mismatch at mu={m}"


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
    # All 64 pairs of 3-level inputs, one channel use each, as one block.
    bits = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(np.uint8)
    x1, x2 = bits[:, :3], bits[:, 3:]
    d1, d2 = det_xchannel.transmit(x1, x2, det_xchannel.DetConfig(3))
    own = np.array([True, False, True])  # levels 1 and 3 from the own EN
    assert np.array_equal(d1, np.where(own, x1, x2)) and np.array_equal(d2, np.where(own, x2, x1))


def check_det_random_runs(faults=frozenset()) -> None:
    for nd in (5, 11, 21):
        params = SystemParams(mu=0.5, r_f=0.0, r_d=1.5, file_bits=10 * (nd - 1), power=2.0**nd)
        for seed in range(40):
            rep = fran_schemes.run_end_to_end(params, seed, "d2d_det", n_d=nd)
            assert rep.exact
            assert abs(rep.ndt_estimate - ndt_formulas.det_ndt(nd, 1.5)) < 1e-12
            assert rep.latency.t_d * 1.5 * nd >= rep.latency.t_e * (nd - 1) / 2 - 1e-9


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
            cfg = real_ia.config_from_q(csi, nd, q, eps_prime=0.5)
            a_idx, b_idx = rng.integers(0, q, size=(2, 1, nd))
            _, resolved, in_range = real_ia.transmit(csi, cfg, a_idx, b_idx)
            assert in_range.all()
            assert np.array_equal(resolved, real_ia._resolved_truth(a_idx, b_idx))


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
    grid = _verify_grid()
    mu, rf, rd = grid
    mix = fran_schemes.best_achievable_grid(mu, rf, rd)
    val = mix.ndt
    _, corner_value = fran_schemes._corner_grid(rf, rd)
    finite = [np.isfinite(v) for v in corner_value]  # a one-row corner's time may be a float
    below_corner = np.ones(mu.shape, dtype=bool)
    for k, m in enumerate(fran_schemes.CORNER_MUS):
        below_corner &= ~(finite[k] & (m == mu)) | (val <= corner_value[k] + 1e-12)
    below_chord = np.ones(mu.shape, dtype=bool)
    for i, j in fran_schemes._CORNER_PAIRS:
        m1, m2 = fran_schemes.CORNER_MUS[i], fran_schemes.CORNER_MUS[j]
        straddles = finite[i] & finite[j] & (m1 < mu) & (mu < m2)
        with np.errstate(invalid="ignore"):  # 0 * inf where a corner is excluded
            w = (m2 - mu) / (m2 - m1)
            chord = w * corner_value[i] + (1 - w) * corner_value[j]
        below_chord &= ~straddles | (val <= chord + 1e-12)
    d2d_half = (rd > np.maximum(1.0, rf)) & (mu >= 0.5)
    _raise_first(
        grid,
        [
            (below_corner, lambda p, k: "envelope above its own corner"),
            (below_chord, lambda p, k: "envelope above a chord"),
            (
                ~(d2d_half & mix.uses_fronthaul()),
                lambda p, k: f"fronthaul scheme selected needlessly at {p}",
            ),
        ],
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
    try:
        return args.func(args)
    except MemoryError as exc:  # e.g. an --L whose library numpy cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
