"""``run_end_to_end`` reports pinned field by field against recorded values.

Every scheme is run over file sizes L in {4096, 1000, 14}, powers
P in {2^12, 2^16, 2^24} and CSI seeds 0..11, and each report (or the text
of the ``ValueError`` it raised) must equal the recorded one exactly,
``details`` included.  The two ZF runners also run at P in {2^48, 2^90,
2^124} for L in {4096, 14}: only there do the bit packers reach widths of
24 to 44 bits per real dimension and soft transfer's quantizer its widest
level counts.  Those cases were added later, recorded from the same code as
the rest.  The recording was made before the IA demodulator and
the bit packers were reworked for speed, so it guards those reworks against
any change in a decision, a bit or a float.  The ``d2d_det`` estimates were
re-recorded once, when they began to normalize by L instead of the length
padded to whole channel uses.  The two X-channel runners are also checked
against the finite-power formulas in their docstrings on every case.

To re-record, from a checkout whose outputs are the reference:

    PYTHONPATH=src python tests/test_end_to_end_pinned.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from fran_d2d import fran_schemes
from fran_d2d.fran_schemes import RUNNERS, run_end_to_end
from fran_d2d.model import SystemParams

RECORDED = Path(__file__).resolve().parent / "data" / "end_to_end_reports.json"

# Each runner of the scheme table at its row's cache corner.
SCHEME_MUS = {runner: row.mu_corner for runner, row in RUNNERS.items()}
FILE_BITS = (4096, 1000, 14)
POWER_EXPONENTS = (12, 16, 24)
SEEDS = range(12)
HIGH_POWER_SCHEMES = ("cache_zf", "soft_transfer")
HIGH_POWER_FILE_BITS = (4096, 14)
HIGH_POWER_EXPONENTS = (48, 90, 124)


def _case_key(scheme: str, file_bits: int, exponent: int, seed: int) -> str:
    return f"{scheme} L={file_bits} P=2^{exponent} seed={seed}"


def _cases():
    for scheme in SCHEME_MUS:
        for file_bits in FILE_BITS:
            for exponent in POWER_EXPONENTS:
                for seed in SEEDS:
                    yield scheme, file_bits, exponent, seed
    for scheme in HIGH_POWER_SCHEMES:
        for file_bits in HIGH_POWER_FILE_BITS:
            for exponent in HIGH_POWER_EXPONENTS:
                for seed in SEEDS:
                    yield scheme, file_bits, exponent, seed


def _outcome(scheme: str, file_bits: int, exponent: int, seed: int) -> dict:
    """Every report field as JSON values, or the error the run raised."""
    params = SystemParams(
        mu=SCHEME_MUS[scheme], r_f=1.0, r_d=2.0, file_bits=file_bits, power=2.0**exponent
    )
    try:
        rep = run_end_to_end(params, seed, scheme)
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    lat = rep.latency
    return {
        "scheme": rep.scheme,
        "demand": [rep.demand.d1, rep.demand.d2],
        "exact": rep.exact,
        "mismatched_bits": rep.mismatched_bits,
        "latency": [lat.t_f, lat.t_e, lat.t_d],
        "ndt_estimate": rep.ndt_estimate,
        "details": rep.details,
    }


def _json_roundtrip(value: dict) -> dict:
    # The recorded side went through JSON; numpy scalars and tuples do not.
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text())


def test_recording_covers_every_case(recorded):
    assert set(recorded) == {_case_key(*case) for case in _cases()}


@pytest.mark.parametrize("scheme", list(SCHEME_MUS))
def test_reports_equal_the_recording(recorded, scheme):
    diffs = []
    for case in _cases():
        if case[0] != scheme:
            continue
        key = _case_key(*case)
        got = _json_roundtrip(_outcome(*case))
        if got != recorded[key]:
            diffs.append(f"{key}: got {got}, recorded {recorded[key]}")
    assert not diffs, "\n".join(diffs[:5])


def test_interleaved_seeds_and_sizes_serve_no_stale_draw(recorded):
    # The library and channel caches hold one seed and size at a time: each
    # step replaces the last, and the last two return to an earlier one.
    fran_schemes._library.cache_clear()
    fran_schemes._channel.cache_clear()
    for seed, file_bits in ((0, 4096), (1, 4096), (0, 1000), (0, 4096)):
        for scheme in SCHEME_MUS:
            for exponent in POWER_EXPONENTS:
                key = _case_key(scheme, file_bits, exponent, seed)
                assert _json_roundtrip(_outcome(scheme, file_bits, exponent, seed)) == (
                    recorded[key]
                ), key


def _formula(scheme: str, file_bits: int, exponent: int, details: dict) -> tuple[int, float]:
    """Block length and ``ndt_estimate`` from the runners' docstring formulas."""
    n_d, r_d = details["n_d"], 2.0
    if scheme == "d2d_det":  # one bit per level, log2 P taken as n_d
        width, log2p, element_bits = 1, n_d, 1
    else:
        q = details["q"]
        width, log2p, element_bits = math.log2(q), exponent, math.log2(2 * q)
    uses = math.ceil(math.ceil((file_bits / 2) / width) / ((n_d - 1) / 2))
    return uses, uses * (log2p + element_bits * (n_d - 1) / (2 * r_d)) / file_bits


@pytest.mark.parametrize("scheme", ["d2d_det", "d2d_ia"])
def test_x_channel_runners_follow_their_finite_power_formulas(scheme):
    for case in _cases():
        if case[0] != scheme:
            continue
        got = _outcome(*case)
        uses, estimate = _formula(*case[:3], got["details"])
        assert got["latency"][1] == uses, case
        assert got["ndt_estimate"] == pytest.approx(estimate, rel=1e-12, abs=0.0), case


def main() -> int:
    lines = [
        f"{json.dumps(_case_key(*case))}: {json.dumps(_outcome(*case), sort_keys=True)}"
        for case in _cases()
    ]
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} reports to {RECORDED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
