"""The benchmark's trace harness still sees every layer it reports on.

``benchmarks/tracing.install`` rebinds module globals of the package, so it
runs in a child process, never in the test process.  A refactor that moves
a call out of a wrapped function zeroes a per-layer metric without any
other test noticing; the spans and counters below catch that.  Spans are
also counted per name inside the timed op that runs the four corner
schemes on one seed, which pins where the one-draw-per-seed saving shows,
and the one D2D/SIC step of ``model`` is traced to the runs that call it.
"""

import collections
import json
import subprocess
import sys
from pathlib import Path

from fran_d2d.cli import ALL_CHECKS

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing
from fran_d2d import cli, fran_schemes, real_ia
from fran_d2d.model import SystemParams

rec = tracing.SpanRecorder()
tracing.install(rec)
rec.on, rec.op = True, 0
for scheme, mu in (("cache_zf", 1.0), ("soft_transfer", 0.0), ("d2d_ia", 0.5), ("d2d_det", 0.5)):
    params = SystemParams(mu=mu, r_f=1.0, r_d=2.0, file_bits=64, power=2.0**16)
    fran_schemes.run_end_to_end(params, 0, scheme)
rec.op = 1
real_ia.run_ia_delivery(0, n_d=3, eps_prime=0.5, power=2.0**16, r_d=2.0, n_uses=4)
cli.render_sweep(cli.SweepSpec(mu_grid=(0.0, 0.5), rf_grid=(1.0,), rd_grid=(2.0,)))
rec.op = tracing.VERIFY_OP
failures = cli.run_verification()


def outermost(span):
    while rec.parents[span] >= 0:
        span = rec.parents[span]
    return rec.names[rec.name_ids[span]]


print(json.dumps({
    "spans": sorted({rec.names[i] for i in rec.name_ids}),
    "op_0": [rec.names[i] for i, op in zip(rec.name_ids, rec.op_ids) if op == 0],
    "d2d_sic": [
        [rec.op_ids[span], outermost(span)]
        for span, i in enumerate(rec.name_ids)
        if rec.names[i] == "model.d2d_sic" and rec.op_ids[span] in (0, 1)
    ],
    "counters": dict(rec.counters),
    "failures": failures,
}))
"""


def test_trace_harness_records_every_reported_layer():
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "benchmarks"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    assert got["failures"] == []
    spans = set(got["spans"])
    schemes = ("cache_zf", "soft_transfer", "d2d_ia", "d2d_det")
    assert {f"fran_schemes.run_end_to_end:{s}" for s in schemes} <= spans
    assert {
        "real_ia.AlignedDemodulator.demodulate", "real_ia.run_ia_delivery", "cli.render_sweep"
    } <= spans
    assert len(ALL_CHECKS) == 16
    assert {f"cli.verify.{name}" for name, _ in ALL_CHECKS} <= spans
    assert got["counters"]["fran_schemes.bits_delivered"] > 0
    assert got["counters"]["real_ia.exact_runs"] > 0
    # The four corners on seed 0 draw its channel once, though three read it.
    op_0 = collections.Counter(got["op_0"])
    assert {f"fran_schemes.run_end_to_end:{s}" for s in schemes} <= set(op_0)
    assert op_0["model.draw_csi"] == 1
    # One receiver-cooperation step serves both X channels: one span under
    # each X-channel run of op 0, and one in the Monte-Carlo run of op 1.
    assert sorted(got["d2d_sic"]) == [
        [0, "fran_schemes.run_end_to_end:d2d_det"],
        [0, "fran_schemes.run_end_to_end:d2d_ia"],
        [1, "real_ia.run_ia_delivery"],
    ]
