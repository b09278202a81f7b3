"""The array closed forms against a scalar reference, bit for bit.

The reference below is the per-point code the array forms replaced: plain
Python floats, one (mu, r_f, r_d) point at a time.  Every element of every
array form, and every scalar API call, must reproduce it exactly.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fran_d2d.fran_schemes import (
    CORNER_MUS,
    SCHEMES,
    SchemeComponent,
    SchemeMix,
    _check_mix,
    best_achievable,
    best_achievable_grid,
)
from fran_d2d.model import SystemParams
from fran_d2d import cli, fran_schemes, ndt_formulas
from fran_d2d.ndt_formulas import (
    REGIMES,
    Regime,
    classify_regime,
    classify_regime_grid,
    lower_bound,
    lower_bound_grid,
    minimum_ndt,
    minimum_ndt_grid,
)

# ---------------------------------------------------------------------------
# Scalar reference
# ---------------------------------------------------------------------------


def _ratio(num, den):
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return math.inf if num > 0.0 else -math.inf
    return num / den


def _regime(r_f, r_d):
    if r_f <= 1.0 and r_d <= 1.0:
        return Regime.BOTH_SMALL
    if r_f >= max(1.0, r_d):
        return Regime.FRONTHAUL_DOMINANT
    return Regime.D2D_DOMINANT


def _minimum(mu, r_f, r_d):
    regime = _regime(r_f, r_d)
    if regime is Regime.BOTH_SMALL:
        return max(1.0 + mu + _ratio(1.0 - 2.0 * mu, r_f), 2.0 - mu)
    if regime is Regime.FRONTHAUL_DOMINANT:
        return 1.0 + (1.0 - mu) / r_f
    return max(1.0 + mu / r_d + _ratio(1.0 - 2.0 * mu, r_f), 1.0 + (1.0 - mu) / r_d)


def _lower(mu, r_f, r_d):
    i1 = 2.0 - mu
    i2 = _ratio(1.0 - 2.0 * mu, r_f)
    regime = _regime(r_f, r_d)
    if regime is Regime.BOTH_SMALL:
        candidates = (i1, i1 + (1.0 - r_f) * i2)
    elif regime is Regime.FRONTHAUL_DOMINANT:
        candidates = ((i1 + (r_f - 1.0)) / r_f,)
    else:
        candidates = (
            (i1 + (r_d - 1.0)) / r_d,
            (i1 + (r_d - r_f) * i2 + (r_d - 1.0)) / r_d,
        )
    return max(1.0, *candidates)


def _half_cache(r_f, r_d):
    options = (
        ("ia_no_d2d", 1.5),
        ("fronthaul_zf_mix", 1.0 + _ratio(1.0, 2.0 * r_f)),
        ("d2d_x", 1.0 + _ratio(1.0, 2.0 * r_d)),
    )
    best = options[0]
    for option in options[1:]:
        if option[1] < best[1]:
            best = option
    return best


def _best(mu, r_f, r_d):
    """(components as (scheme, mu_corner, fraction) tuples, value)."""
    half_scheme, half_value = _half_cache(r_f, r_d)
    corners = [
        c
        for c in (
            ("soft_transfer", 0.0, 1.0 + _ratio(1.0, r_f)),
            (half_scheme, 0.5, half_value),
            ("cache_zf", 1.0, 1.0),
        )
        if math.isfinite(c[2])
    ]
    best_val = math.inf
    best_components = ()
    for scheme, m, v in corners:
        if m == mu and v < best_val:
            best_val = v
            best_components = ((scheme, m, 1.0),)
    for i, (s1, m1, v1) in enumerate(corners):
        for s2, m2, v2 in corners[i + 1 :]:
            if not m1 < mu < m2:
                continue
            w1 = (m2 - mu) / (m2 - m1)
            val = w1 * v1 + (1.0 - w1) * v2
            if val < best_val - 1e-15:
                best_val = val
                best_components = ((s1, m1, w1), (s2, m2, 1.0 - w1))
    return best_components, best_val


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _bits(x) -> str:
    return float(x).hex()


def _grid_components(grid, k):
    slots = list(
        zip(
            grid.scheme.reshape(-1, 2)[k].tolist(),
            grid.mu_corner.reshape(-1, 2)[k].tolist(),
            grid.fraction.reshape(-1, 2)[k].tolist(),
        )
    )
    # An unused slot is -1 with corner size and time share both +0.0.
    assert all(_bits(m) == _bits(f) == _bits(0.0) for s, m, f in slots if s < 0)
    return tuple((SCHEMES[s], m, f) for s, m, f in slots if s >= 0)


def _same_components(got, want) -> bool:
    return [(s, _bits(m), _bits(f)) for s, m, f in got] == [
        (s, _bits(m), _bits(f)) for s, m, f in want
    ]


# The edges of every regime and of the infeasible region (mu < 1/2 at
# r_f = 0), plus -0.0, which SystemParams accepts.
_MU = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
_RATE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
    st.floats(0.0, 5.0),
    st.floats(0.0, 1e300),
)


@st.composite
def _grids(draw):
    mus = draw(st.lists(_MU, min_size=1, max_size=4))
    rfs = draw(st.lists(_RATE, min_size=1, max_size=4))
    rds = draw(st.one_of(st.just(rfs), st.lists(_RATE, min_size=1, max_size=4)))
    return mus, rfs, rds


def _assert_matches_the_reference(grid):
    """Every array form over the grid, and the scalar API at its valid points, bit for bit."""
    mu, rf, rd = np.meshgrid(*grid, indexing="ij")
    regimes = classify_regime_grid(rf, rd)
    minima = minimum_ndt_grid(mu, rf, rd)
    lowers = lower_bound_grid(mu, rf, rd)
    mixes = best_achievable_grid(mu, rf, rd)
    assert regimes.shape == minima.shape == lowers.shape == mixes.ndt.shape == mu.shape
    for k, (m, f, d) in enumerate(zip(mu.flat, rf.flat, rd.flat)):
        m, f, d = float(m), float(f), float(d)
        want_components, want_value = _best(m, f, d)
        assert REGIMES[regimes.flat[k]] is _regime(f, d)
        assert _bits(minima.flat[k]) == _bits(_minimum(m, f, d))
        assert _bits(lowers.flat[k]) == _bits(_lower(m, f, d))
        assert _bits(mixes.ndt.flat[k]) == _bits(want_value)
        assert _same_components(_grid_components(mixes, k), want_components)

        if not 0.0 <= m <= 1.0:
            continue
        params = SystemParams(mu=m, r_f=f, r_d=d)
        assert classify_regime(params) is _regime(f, d)
        assert _bits(minimum_ndt(params)) == _bits(_minimum(m, f, d))
        assert _bits(lower_bound(params)) == _bits(_lower(m, f, d))
        mix, value = best_achievable(params)
        assert _bits(value) == _bits(want_value) == _bits(mix.ndt)
        got = tuple((c.scheme, c.mu_corner, c.fraction) for c in mix.components)
        assert _same_components(got, want_components)


@settings(max_examples=150, deadline=None)
@given(grid=_grids())
def test_array_forms_match_the_scalar_reference_bit_for_bit(grid):
    _assert_matches_the_reference(grid)


# Inputs where a rewritten envelope or ``_ratio`` could part from the
# reference: rates around _TINY, below which 1/r overflows, and around
# _TINY/2, below which 1/(2 r) does too; mu one ulp either side of each
# corner; and -0.0.  At the rate 2^53 + 2 and mu = 1 the converse's
# quotient rounds to 1 - 2^-52, below its floor of 1.
_TINY = 1.0 / np.finfo(np.float64).max
_EDGE_MUS = [-0.0, 0.25, *CORNER_MUS] + [
    float(np.nextafter(m, side)) for m in CORNER_MUS for side in (-math.inf, math.inf)
]
_EDGE_RATES = [0.0, -0.0, 1.0, 2.0, 4e-309, 2.0**53 + 2] + [
    float(np.nextafter(r, side)) for r in (_TINY, _TINY / 2) for side in (0.0, math.inf)
] + [_TINY, _TINY / 2]


def test_array_forms_match_the_scalar_reference_at_the_edges():
    # The whole grid mixes cache sizes; a one-mu slice takes the path
    # where every point shares one.
    _assert_matches_the_reference((_EDGE_MUS, _EDGE_RATES, _EDGE_RATES))
    for m in _EDGE_MUS:
        _assert_matches_the_reference(([m], _EDGE_RATES, _EDGE_RATES))


def _cut_set_lp(mu, r_f, r_d):
    """Oracle for the converse: min d_f + d_e + d_d over the cuts and d >= 0.

    The LP's vertices are the points where three of its six planes meet:
    I1 (d_e + r_f d_f + r_d d_d = 2 - mu), I2 written as r_f d_f = 1 - 2 mu
    (so that r_f = 0 needs no division), I3 (d_e = 1) and d_f, d_e, d_d = 0.
    Each of the 20 triples with one solution gives a vertex; the least
    total over the feasible ones is the LP's value, +inf when none is.
    """
    mu, r_f, r_d = (np.ravel(a) for a in np.broadcast_arrays(mu, r_f, r_d))
    one, zero = np.ones_like(mu), np.zeros_like(mu)
    rows = np.stack(
        [
            np.stack(row, axis=-1)
            for row in (
                (r_f, one, r_d),
                (r_f, zero, zero),
                (zero, one, zero),
                (one, zero, zero),
                (zero, one, zero),
                (zero, zero, one),
            )
        ],
        axis=1,
    )
    rhs = np.stack([2.0 - mu, 1.0 - 2.0 * mu, one, zero, zero, zero], axis=1)
    best = np.full(mu.shape, np.inf)
    for triple in itertools.combinations(range(6), 3):
        planes = rows[:, triple]
        solvable = np.abs(np.linalg.det(planes)) > 1e-12
        planes[~solvable] = np.eye(3)
        d = np.linalg.solve(planes, rhs[:, triple, None])[..., 0]
        slack = np.einsum("nij,nj->ni", rows, d) - rhs
        feasible = solvable & (slack >= -1e-9 * (1.0 + np.abs(rhs))).all(axis=1)
        best[feasible] = np.minimum(best[feasible], d[feasible].sum(axis=1))
    return best


def test_the_converse_is_the_cut_set_lp_value():
    # The 101x31x31 sweep grid: all three regimes and the infeasible
    # region (mu < 1/2 at r_f = 0).
    rates = np.round(0.1 * np.arange(31), 10)
    mu, rf, rd = np.meshgrid(np.round(0.01 * np.arange(101), 10), rates, rates, indexing="ij")
    got = lower_bound_grid(mu, rf, rd).ravel()
    want = _cut_set_lp(mu, rf, rd)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.isinf(got).sum() == 50 * 31
    finite = np.isfinite(want)
    assert (np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite]).all()


def test_the_converse_reads_no_regime(monkeypatch):
    # Moving the both-small boundary from 1 to 1.3 changes the optimum on
    # part of the verify grid.  The converse, derived from the cuts alone,
    # never asks for a regime and stays bit for bit, so the tightness check
    # sees the optimum move.
    grid = cli._verify_grid()
    want = lower_bound_grid(*grid)
    calls = []

    def moved(r_f, r_d):
        calls.append(1)
        r_f, r_d = np.asarray(r_f), np.asarray(r_d)
        return np.where(
            (r_f <= 1.3) & (r_d <= 1.3), 0, np.where(r_f >= np.maximum(1.0, r_d), 1, 2)
        )

    monkeypatch.setattr(ndt_formulas, "classify_regime_grid", moved)
    assert lower_bound_grid(*grid).tobytes() == want.tobytes()
    assert lower_bound(SystemParams(mu=0.5, r_f=0.0, r_d=0.5)) == 1.5
    assert not calls
    failures = dict(cli.run_verification())
    assert "formulas.tightness" in failures
    assert failures["formulas.tightness"].startswith("tightness broken at mu=0.0 rf=1.25 rd=0.0:")


def test_ratio_keeps_its_conventions_elementwise():
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e300, math.inf, -math.inf, math.nan]
    num, den = np.meshgrid(values, values, indexing="ij")
    got = ndt_formulas._ratio(num, den)
    for k, (n, d) in enumerate(zip(num.flat, den.flat)):
        assert _bits(got.flat[k]) == _bits(_ratio(float(n), float(d)))
        assert _bits(ndt_formulas._ratio(float(n), float(d))) == _bits(_ratio(float(n), float(d)))
    for n, d in ((1.0, 2.0), (1.0, -0.0), (0.0, 3.0)):
        got = ndt_formulas._ratio(n, d)
        assert type(got) is np.ndarray and got.shape == ()


def test_scalar_api_returns_python_values():
    params = SystemParams(mu=0.3, r_f=1.5, r_d=2.5)
    assert type(minimum_ndt(params)) is float
    assert type(lower_bound(params)) is float
    mix, value = best_achievable(params)
    assert type(value) is float
    assert all(type(c.fraction) is float for c in mix.components)
    assert isinstance(classify_regime(params), Regime)


@pytest.mark.parametrize(
    "fractions, corners, mu, message",
    [
        ((1.5, -0.5), (0.5, 1.0), 0.25, "fractions must be non-negative"),
        ((0.5, 0.625), (0.0, 1.0), 0.625, "fractions must sum to 1, got 1.125"),
        ((0.5, 0.5), (0.0, 1.0), 0.75, "cache shares do not average to the requested mu"),
    ],
)
def test_mix_checks_raise_on_scalars_and_arrays(fractions, corners, mu, message):
    components = tuple(
        SchemeComponent(s, m, f) for s, m, f in zip(("soft_transfer", "cache_zf"), corners, fractions)
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        SchemeMix(mu=mu, components=components, ndt=1.0)
    # One bad point among valid ones is enough; slots run along the first axis.
    good = (np.array([1.0, 0.0]), np.array([0.5, 1.0]), 0.5)
    fraction = np.stack([good[0], fractions, good[0]], axis=1)
    mu_corner = np.stack([good[1], corners, good[1]], axis=1)
    mus = np.array([good[2], mu, good[2]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        _check_mix(mus, fraction, mu_corner)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _check_mix(mus, fraction, mu_corner, where=np.array([False, True, False]))
    # A point outside ``where`` is not checked.
    _check_mix(mus, fraction, mu_corner, where=np.array([True, False, True]))
    _check_mix(np.full(2, good[2]), np.stack([good[0]] * 2, axis=1), np.stack([good[1]] * 2, axis=1))


@pytest.mark.parametrize("mus", [[0.37], [0.0, 0.25, 0.5, 0.75, 1.0]])
def test_the_envelope_checks_its_mixes(monkeypatch, mus):
    # The rounds weigh the corners by CORNER_MUS; the mixes read their
    # corner sizes from this table.  Shifted, no feasible mix averages to
    # its mu, on one-mu slices (few rounds) and many-mu grids (all rounds).
    monkeypatch.setattr(fran_schemes, "_CORNER_SIZES", fran_schemes._CORNER_SIZES + 0.125)
    mu, rf, rd = np.meshgrid(mus, [0.0, 0.5, 2.0], [0.5, 2.0], indexing="ij")
    with pytest.raises(ValueError, match="^cache shares do not average to the requested mu$"):
        best_achievable_grid(mu, rf, rd)
    with pytest.raises(ValueError, match="^cache shares do not average to the requested mu$"):
        best_achievable(SystemParams(mu=mus[-1], r_f=0.5, r_d=2.0))


def test_every_mix_is_checked_once(monkeypatch):
    # The scalar call leaves the check to ``SchemeMix``, which still refuses
    # a bad mix built by any other caller.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _check_mix(*args, **kwargs)

    monkeypatch.setattr(fran_schemes, "_check_mix", counted)
    params = SystemParams(mu=0.37, r_f=1.3, r_d=2.1)
    mix, value = best_achievable(params)
    assert len(calls) == 1 and len(mix.components) == 2
    assert value == float(best_achievable_grid(params.mu, params.r_f, params.r_d).ndt)
    assert len(calls) == 2
    bad = tuple(replace(c, fraction=0.5) for c in mix.components)
    with pytest.raises(ValueError, match="^cache shares do not average to the requested mu$"):
        SchemeMix(mu=params.mu, components=bad, ndt=value)
    assert len(calls) == 3


def _classify_regime_grid(mu, r_f, r_d):
    return classify_regime_grid(r_f, r_d)


@pytest.mark.parametrize(
    "form", [minimum_ndt_grid, lower_bound_grid, best_achievable_grid, _classify_regime_grid]
)
@pytest.mark.parametrize("name", ["r_f", "r_d"])
def test_grid_forms_reject_a_negative_rate(form, name):
    # A negative rate keeps its message; an infinite or NaN one is named as not finite.
    for bad, message in (
        (-1.0, f"^{name} must be >= 0, got -1.0$"),
        (math.inf, f"^{name} must be finite, got inf$"),
        (math.nan, f"^{name} must be finite, got nan$"),
    ):
        rates = {"r_f": 1.0, "r_d": 1.0, name: bad}
        with pytest.raises(ValueError, match=message):
            form(0.5, rates["r_f"], rates["r_d"])
        # One bad point among valid ones is enough.
        rates = {"r_f": np.array([0.5, 1.0, 2.0]), "r_d": np.array([2.0, 1.0, 0.5])}
        rates[name] = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match=message):
            form(np.full(3, 0.5), rates["r_f"], rates["r_d"])


@pytest.mark.parametrize(
    "form",
    [
        lambda r_d: ndt_formulas.delta_nd(3, r_d),
        lambda r_d: ndt_formulas.det_ndt(5, r_d),
        ndt_formulas.zf_compress_forward_ndt,
        lambda r_d: SystemParams(mu=0.5, r_f=1.0, r_d=r_d),
    ],
    ids=["delta_nd", "det_ndt", "zf_compress_forward_ndt", "SystemParams"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (-1.0, "^r_d must be >= 0, got -1.0$"),
        (math.inf, "^r_d must be finite, got inf$"),
        (math.nan, "^r_d must be finite, got nan$"),
    ],
)
def test_scalar_forms_reject_a_bad_rate_as_the_grid_forms_do(form, bad, message):
    with pytest.raises(ValueError, match=message):
        form(bad)
