"""The text of `sweep` against the formatters it replaced, byte for byte.

The references below are the per-value and per-column code that the bulk
formatting in ``cli`` replaced: one ``format()`` per value, one
``np.unique`` per column, and one ``json.dumps(doc, indent=2,
sort_keys=True)`` over the whole document.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fran_d2d import cli, fran_schemes
from fran_d2d.cli import SweepSpec, parse_grid, render_sweep

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json"

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _fmt_values_reference(values):
    return ["inf" if math.isinf(v) else format(v, ".10g") for v in values.tolist()]


def _once_per_value_reference(columns, render):
    bits = [np.ascontiguousarray(c).view(np.int64) for c in columns]
    n = len(bits[0])
    _, first, ids = np.unique(bits[0], return_index=True, return_inverse=True)
    for column in bits[1:]:
        key = ids * n + np.unique(column, return_inverse=True)[1]
        _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    rendered = np.empty(len(first), dtype=object)
    rendered[:] = render(*(c[first] for c in columns))
    return rendered[ids].tolist()


def _json_reference(spec):
    """The sweep document as ``json.dumps`` wrote it, one row dict at a time."""
    mu, rf, rd = (g.ravel() for g in np.meshgrid(spec.mu_grid, spec.rf_grid, spec.rd_grid, indexing="ij"))
    mix = fran_schemes.best_achievable_grid(mu, rf, rd)
    ndts = {
        "ndt_min": cli.ndt_formulas.minimum_ndt_grid(mu, rf, rd),
        "ndt_lower": cli.ndt_formulas.lower_bound_grid(mu, rf, rd),
        "ndt_achievable": mix.ndt,
    }
    regimes = cli.ndt_formulas.classify_regime_grid(rf, rd)
    rows = []
    for k in range(len(mu)):
        row = {
            "mu": float(mu[k]),
            "rf": float(rf[k]),
            "rd": float(rd[k]),
            "regime": cli.ndt_formulas.REGIMES[regimes[k]].value,
            "mix": [
                {
                    "scheme": fran_schemes.SCHEMES[int(mix.scheme[k, s])].name,
                    "mu_corner": float(mix.mu_corner[k, s]),
                    "fraction": float(mix.fraction[k, s]),
                }
                for s in range(2)
                if mix.scheme[k, s] >= 0
            ],
        }
        values = [(key, float(v[k])) for key, v in ndts.items()]
        row.update((key, None if math.isinf(v) else v) for key, v in values)
        row["infinite"] = [key for key, v in values if math.isinf(v)]
        rows.append(row)
    doc = {"schema": cli.SWEEP_SCHEMA, "seeds": [], "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Golden slices
# ---------------------------------------------------------------------------


def test_every_benchmark_slice_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text())["closed-form-grid"]
    rates = parse_grid("0:3:0.1")
    mus = parse_grid("0:1:0.01")
    assert len(golden["csv"]) == len(golden["json"]) == len(mus) == 101
    for mu in mus:
        spec = SweepSpec(mu_grid=(mu,), rf_grid=rates, rd_grid=rates)
        for fmt in ("csv", "json"):
            text = render_sweep(dataclasses.replace(spec, fmt=fmt))
            assert _digest(text) == golden[fmt][f"{mu:.2f}"], (fmt, mu)


def _rows_of(text):
    """A JSON sweep split into the text before its rows, the rows, and the text after."""
    head, marker, rest = text.partition('"rows": [\n')
    rows, end, tail = rest.partition("\n  ],\n")
    return head + marker, rows, end + tail


def test_the_whole_grid_renders_as_its_slices_do():
    # Each golden digest covers one mu, where the envelope skips most of
    # its rounds; a grid of many mus runs them all.
    rates = parse_grid("0:3:0.1")
    mus = parse_grid("0:1:0.01")
    whole = render_sweep(SweepSpec(mus, rates, rates)).splitlines()
    rows = []
    for mu in mus:
        lines = render_sweep(SweepSpec((mu,), rates, rates)).splitlines()
        assert lines[:2] == whole[:2]
        rows.extend(lines[2:])
    assert whole[2:] == rows
    assert len(whole) == 97_063

    mus = (0.0, 0.3, 0.5, 0.75, 1.0)
    head, whole, tail = _rows_of(render_sweep(SweepSpec(mus, rates, rates, fmt="json")))
    slices = [_rows_of(render_sweep(SweepSpec((mu,), rates, rates, fmt="json"))) for mu in mus]
    assert all((h, t) == (head, tail) for h, _, t in slices)
    assert whole == ",\n".join(r for _, r, _ in slices)


# ---------------------------------------------------------------------------
# Bulk formatting against the per-value formatter
# ---------------------------------------------------------------------------


def test_bulk_formatting_matches_the_per_value_formatter():
    specials = [math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e300, 0.1 + 0.2]
    values = np.array(specials + list(parse_grid("0:3:0.1")))
    assert cli._fmt_values(values) == _fmt_values_reference(values)
    assert cli._fmt_values(values[:0]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30))
def test_bulk_formatting_matches_on_any_floats(values):
    values = np.array(values, dtype=np.float64)
    assert cli._fmt_values(values) == _fmt_values_reference(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
def test_json_values_match_json_dumps(values):
    values = np.array(values, dtype=np.float64)
    want = [json.dumps(None if math.isinf(v) else v) for v in values.tolist()]
    assert cli._json_values(values) == want


_COLUMN_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, math.inf, -math.inf, 1e-300, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_COLUMN_VALUES, _COLUMN_VALUES, st.integers(-1, 4)), min_size=1, max_size=40),
    repeat=st.integers(1, 3),
)
def test_lexsort_dedupe_matches_the_unique_version(rows, repeat):
    rows = rows * repeat
    a, b, s = (np.array(c) for c in zip(*rows))
    columns = [a, b, s.astype(np.int64)]

    def render(*distinct):
        return [repr(tuple(np.asarray(c).view(np.int64)[k] for c in distinct)) for k in range(len(distinct[0]))]

    assert cli._once_per_value(columns, render) == _once_per_value_reference(columns, render)
    assert cli._once_per_value([a], cli._fmt_values) == _once_per_value_reference([a], _fmt_values_reference)


def test_lexsort_dedupe_renders_each_distinct_row_once():
    calls = []

    def render(*distinct):
        calls.append(len(distinct[0]))
        return [str(k) for k in range(len(distinct[0]))]

    column = np.array([0.0, -0.0, 0.0, 1.0, -0.0, 1.0])
    texts = cli._once_per_value([column], render)
    assert calls == [3]
    assert texts[0] == texts[2] != texts[1] == texts[4] != texts[3] == texts[5]


# ---------------------------------------------------------------------------
# JSON document against json.dumps
# ---------------------------------------------------------------------------

_MU = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
_RATE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 5.0), st.floats(0.0, 1e300))


@settings(max_examples=100, deadline=None)
@given(
    mus=st.lists(_MU, min_size=1, max_size=4),
    rfs=st.lists(_RATE, min_size=1, max_size=4),
    rds=st.lists(_RATE, min_size=1, max_size=4),
)
def test_json_sweep_matches_json_dumps(mus, rfs, rds):
    spec = SweepSpec(tuple(mus), tuple(rfs), tuple(rds), fmt="json")
    assert render_sweep(spec) == _json_reference(spec)


@pytest.mark.parametrize("mu", ["0", "0.3", "0.5", "0.75", "1"])
def test_json_sweep_with_infinite_and_infeasible_rows(mu):
    spec = SweepSpec(parse_grid(mu), parse_grid("0:2:0.5"), parse_grid("0,0.5,1,3"), fmt="json")
    text = render_sweep(spec)
    assert text == _json_reference(spec)
    rows = json.loads(text)["rows"]
    if float(mu) < 0.5:
        assert any(r["infinite"] and r["mix"] == [] for r in rows)


def test_json_marks_each_infinite_time_by_name():
    # The closed forms agree on which times are infinite, so give each one
    # its own infinite value by hand.
    points = cli._evaluate_grid((0.5,), (1.0,), (0.5, 1.0, 2.0))
    for k, key in enumerate(cli._NDT_KEYS):
        points[key] = points[key].copy()
        points[key][k] = math.inf
    rows = json.loads("[" + cli._json_rows(points) + "]")
    for k, key in enumerate(cli._NDT_KEYS):
        assert rows[k]["infinite"] == [key]
        assert rows[k][key] is None
        assert all(rows[k][other] is not None for other in cli._NDT_KEYS if other != key)
