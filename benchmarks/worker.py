"""One workload of the fran_d2d benchmark, in its own interpreter.

``run.py`` starts this script once per run (plus a few ``--setup-only``
copies that measure start-up).  It imports the package from ``src/``, builds
the workload's inputs from the seed, prints ``READY`` and then drives the
package as a closed loop: one thread, each op starting only after the
previous one returned.  Every op's output is checked outside its timed
region.  The last stdout line is a JSON object with the measurements.

With ``--trace 1`` it instead runs untraced passes over the workload's op
pool, then one traced pass over the same ops (see ``tracing.py``), and
reports per-layer numbers plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# Candidate cap of the exhaustive IA demodulator (real_ia.DEFAULT_SEARCH_CAP).
IA_SEARCH_CAP = 10**7
# Channel seeds 0..IA_POOL-1, i.e. those of `simulate ia --seeds 36`.
IA_POOL = 36
# CSI/file seeds 0..DELIVERY_POOL-1.  A pass of 12 file-delivery ops takes
# 2 to 4 s, so a 40 s run gives each item ten or more tries at a best time.
DELIVERY_POOL = 12


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mu_key(mu: float) -> str:
    return f"{mu:.2f}"


def _ndt_close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9


def ia_outcome(rep) -> dict:
    """The fields of an IA report that a pure performance change keeps."""
    return {
        "q": rep.config.q,
        "exact_demod": rep.exact_demod,
        "symbol_error_rate": rep.symbol_error_rate,
        "margin_error_rate": rep.margin_error_rate,
        "ndt_estimate": rep.ndt_estimate,
    }


def _same_outcome(got: dict, want: dict) -> bool:
    for key, value in want.items():
        if isinstance(value, float):
            if not math.isclose(got[key], value, rel_tol=1e-12, abs_tol=0.0):
                return False
        elif got[key] != value:
            return False
    return True


class Workload:
    """Op pool, one op, and the checks on its output."""

    unit: str  # what work_per_op counts
    pool: list
    work_per_op: int
    verify_runs = 0  # cli.run_verification() runs interleaved with the ops

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def final_check(self, item) -> bool | None:
        """A check made once per run outside the timed ops; None if there is none."""
        return None


class ClosedFormGrid(Workload):
    """One op renders one mu slice of the 101x31x31 sweep grid as CSV."""

    unit = "points"
    verify_runs = 8

    def __init__(self, golden: dict) -> None:
        from fran_d2d import cli

        self.cli = cli
        rates = cli.parse_grid("0:3:0.1")
        self.specs = {
            mu: cli.SweepSpec(mu_grid=(mu,), rf_grid=rates, rd_grid=rates)
            for mu in cli.parse_grid("0:1:0.01")
        }
        self.pool = list(self.specs)
        self.work_per_op = len(rates) ** 2
        self.golden = golden

    def op(self, mu):
        return self.cli.render_sweep(self.specs[mu])

    def check(self, mu, text: str) -> bool:
        if _digest(text) != self.golden["csv"][_mu_key(mu)]:
            return False
        for line in text.splitlines()[2:]:
            ndt_min, ndt_lower, ndt_ach = (float(v) for v in line.split(",")[4:7])
            if not (_ndt_close(ndt_min, ndt_lower) and _ndt_close(ndt_min, ndt_ach)):
                return False
        return True

    def final_check(self, first) -> bool:
        """JSON text of one slice, rendered once outside the timed ops."""
        spec = dataclasses.replace(self.specs[first], fmt="json")
        return _digest(self.cli.render_sweep(spec)) == self.golden["json"][_mu_key(first)]


class IaMonteCarlo(Workload):
    """One op is one seed of `simulate ia --nd 3 --power 2^24 --rd 2 --uses 16`."""

    unit = "uses"
    N_USES = 16

    def __init__(self, golden: dict) -> None:
        from fran_d2d import real_ia

        self.real_ia = real_ia
        self.pool = list(range(IA_POOL))
        self.work_per_op = self.N_USES
        self.golden = golden

    def op(self, channel_seed):
        return self.real_ia.run_ia_delivery(
            channel_seed, n_d=3, eps_prime=0.5, power=2.0**24, r_d=2.0, n_uses=self.N_USES
        )

    def check(self, channel_seed, rep) -> bool:
        q = rep.config.q
        fits_cap = q * q * (2 * q - 1) ** 2 <= IA_SEARCH_CAP
        if not rep.peak_power_ratio <= 1.0 or rep.exact_demod != fits_cap:
            return False
        return _same_outcome(ia_outcome(rep), self.golden[str(channel_seed)])


class FileDelivery(Workload):
    """One op delivers one seed's library with all four corner schemes."""

    unit = "bits"
    SCHEMES = (("cache_zf", 1.0), ("soft_transfer", 0.0), ("d2d_ia", 0.5), ("d2d_det", 0.5))
    FILE_BITS = 4096

    def __init__(self, golden: dict) -> None:  # bit-exactness needs no golden values
        from fran_d2d import fran_schemes
        from fran_d2d.model import SystemParams

        self.fran_schemes = fran_schemes
        self.params = {
            scheme: SystemParams(
                mu=mu, r_f=1.0, r_d=2.0, file_bits=self.FILE_BITS, power=2.0**16
            )
            for scheme, mu in self.SCHEMES
        }
        self.pool = list(range(DELIVERY_POOL))
        self.work_per_op = len(self.SCHEMES) * 2 * self.FILE_BITS

    def op(self, csi_seed):
        return [
            self.fran_schemes.run_end_to_end(self.params[scheme], csi_seed, scheme)
            for scheme, _ in self.SCHEMES
        ]

    def check(self, csi_seed, reports) -> bool:
        return all(
            rep.scheme == scheme and rep.exact and rep.mismatched_bits == 0
            for rep, (scheme, _) in zip(reports, self.SCHEMES, strict=True)
        )


WORKLOADS = {
    "closed-form-grid": ClosedFormGrid,
    "ia-montecarlo": IaMonteCarlo,
    "file-delivery": FileDelivery,
}


class Tally:
    """Attempted and failed ops plus failed run-level checks.

    The first failure is printed to stderr with its traceback, if any.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str, exc: BaseException | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report(what, exc)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
            self.report(what)

    def report(self, what: str, exc: BaseException | None = None) -> None:
        if self.failed + len(self.problems) == 1:
            print(f"benchmark: failed: {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_op(workload, item, tally: Tally, rec=None, op_id: int = -1) -> tuple[float, bool]:
    """One op, timed, then its output check; returns (seconds, passed).

    ``rec`` is the span recorder of a traced pass; spans get ``op_id``.
    """
    if rec is not None:
        rec.op = op_id
    out, exc = None, None
    t0 = perf_counter()
    try:
        out = workload.op(item)
    except Exception as err:  # an op that raises counts as failed
        exc = err
    elapsed = perf_counter() - t0
    if rec is not None:
        rec.op = -1
    ok = False
    if exc is None:
        try:
            ok = workload.check(item, out)
        except Exception as err:  # output of an unexpected shape
            exc = err
    tally.record(ok, f"{type(workload).__name__} op on {item!r}", exc)
    return elapsed, ok


def run_ops(workload, items, tally: Tally, rec=None) -> float:
    """One closed-loop pass over ``items``; returns the summed op time."""
    return sum(run_op(workload, item, tally, rec, index)[0] for index, item in enumerate(items))


def final_check(workload, item, tally: Tally) -> None:
    ok = workload.final_check(item)
    if ok is not None:
        tally.record(ok, f"{type(workload).__name__} final check on {item!r}")


def timed_verification(cli, tally: Tally) -> float:
    t0 = perf_counter()
    failures = cli.run_verification()
    elapsed = perf_counter() - t0
    tally.record(not failures, f"verify: {failures}")
    return elapsed


def measure(workload, cli, rng: random.Random, seconds: float) -> tuple[dict, Tally]:
    """End-to-end measurements, tracing off.

    Ops run in whole passes over the pool, reshuffled for every pass, so each
    item is measured equally often.  The run ends at the pass boundary
    nearest to ``seconds``.  The workload's verify runs are spread evenly
    over that window, so that their median does not hinge on one moment of
    the machine's speed.

    ``op_p50_ms`` is the median over the pool's items of each item's fastest
    op of the run.  On a shared host the same op runs up to twice as slow
    for stretches of seconds, which moves the median over all ops from run
    to run; an item's best over passes spread across the run moves far less.
    ``op_p90_ms`` and ``work_per_s`` are taken over all ops, which was about
    as steady and counts every op.
    """
    tally = Tally()
    first = rng.choice(workload.pool)
    order = list(workload.pool)
    times, verify_times, passed = [], [], 0
    best: dict = {}
    start = perf_counter()
    runs = workload.verify_runs
    verify_due = [start + (k + 0.5) * seconds / runs for k in range(runs)]
    while True:
        pass_start = perf_counter()
        rng.shuffle(order)
        for item in order:
            if verify_due and perf_counter() >= verify_due[0]:
                verify_due.pop(0)
                verify_times.append(timed_verification(cli, tally))
            elapsed, ok = run_op(workload, item, tally)
            times.append(elapsed)
            best[item] = min(elapsed, best.get(item, elapsed))
            passed += ok
        now = perf_counter()
        if now + (now - pass_start) / 2.0 >= start + seconds:
            break
    for _ in verify_due:
        verify_times.append(timed_verification(cli, tally))
    final_check(workload, first, tally)

    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    result = {
        "ops": len(times),
        "items": len(best),
        "passes": len(times) // len(best),
        "op_p50_ms": statistics.median(best.values()) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(t > p90 for t in times),
        "all_ops_p50_ms": statistics.median(times) * 1e3,
        "work_per_s": passed * workload.work_per_op / sum(times),
        "work_unit": workload.unit,
        "work_units": passed * workload.work_per_op,
        "verify_s": statistics.median(verify_times) if verify_times else None,
        "verify_runs": len(verify_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result, tally


def trace(workload, cli, rng: random.Random, seconds: float, out_path: Path):
    """Untraced passes over the pool, then one traced pass in the same order."""
    import tracing

    tally = Tally()
    order = list(workload.pool)
    rng.shuffle(order)
    untraced = []
    t_end = perf_counter() + seconds / 2.0
    while not untraced or perf_counter() < t_end:
        untraced.append(run_ops(workload, order, tally))

    rec = tracing.SpanRecorder()
    tracing.install(rec)
    rec.on = True
    traced = run_ops(workload, order, tally, rec=rec)
    if workload.verify_runs:
        rec.op = tracing.VERIFY_OP
        failures = cli.run_verification()
        tally.record(not failures, f"traced verify: {failures}")
    rec.on = False
    rec.op = -1
    final_check(workload, order[0], tally)

    table = tracing.SpanTable(rec)
    tally.check(table.op_mismatches == 0, "spans whose op id differs from their parent's")
    metrics = layer_metrics(table, rec.counters, len(order), cli)
    metrics["trace.overhead_frac"] = traced / statistics.median(untraced) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(out_path)
    return metrics, tally


def layer_metrics(table, counters, n_ops: int, cli) -> dict:
    """Per-layer numbers over the traced pass, normalized per op."""
    import numpy as np

    import tracing

    in_ops = table.op >= 0
    in_verify = table.op == tracing.VERIFY_OP

    def calls(*names, prefix=None):
        return float(np.count_nonzero(table.mask(in_ops, names, prefix)))

    def total_s(*names, prefix=None, op_mask=in_ops):
        return float(table.dur[table.mask(op_mask, names, prefix)].sum())

    def self_s(*names, prefix=None):
        return float(table.self_time[table.mask(in_ops, names, prefix)].sum())

    def per_call_us(name):
        n = calls(name)
        return total_s(name) / n * 1e6 if n else 0.0

    ndt_layer = "ndt_formulas."
    bits = counters["fran_schemes.bits_delivered"]
    e2e_self = self_s(prefix="fran_schemes.run_end_to_end:")
    ia_runs = counters["real_ia.ia_runs"]
    m = {
        "cli.render_sweep.self_ms": self_s("cli.render_sweep") / n_ops * 1e3,
        "ndt_formulas.calls": calls(prefix=ndt_layer) / n_ops,
        "ndt_formulas.self_ms": self_s(prefix=ndt_layer) / n_ops * 1e3,
        "fran_schemes.best_achievable.calls": calls("fran_schemes.best_achievable") / n_ops,
        "fran_schemes.best_achievable.self_ms": self_s("fran_schemes.best_achievable")
        / n_ops
        * 1e3,
    }
    for scheme, _ in FileDelivery.SCHEMES:
        name = f"fran_schemes.run_end_to_end:{scheme}"
        m[f"fran_schemes.{scheme}.ms"] = total_s(name) / n_ops * 1e3
    m["fran_schemes.run_end_to_end.self_ms"] = e2e_self / n_ops * 1e3
    m["fran_schemes.ns_per_bit"] = e2e_self / bits * 1e9 if bits else 0.0
    build = "real_ia.AlignedDemodulator.__init__"
    demod = "real_ia.AlignedDemodulator.demodulate"
    m.update(
        {
            "real_ia.demod_build.calls": calls(build) / n_ops,
            "real_ia.demod_build.ms": total_s(build) / n_ops * 1e3,
            "real_ia.demodulate.calls": calls(demod) / n_ops,
            "real_ia.demodulate.us_per_call": per_call_us(demod),
            "real_ia.candidates_visited": counters["real_ia.candidates_visited"] / n_ops,
            "real_ia.encode.us_per_call": per_call_us("real_ia.encode"),
            "real_ia.sic_resolve.us_per_call": per_call_us("real_ia.sic_resolve"),
            "real_ia.d2d_exchange.calls": calls("real_ia.d2d_exchange") / n_ops,
            "real_ia.run_ia_delivery.self_ms": self_s("real_ia.run_ia_delivery") / n_ops * 1e3,
            "real_ia.exact_demod_frac": counters["real_ia.exact_runs"] / ia_runs
            if ia_runs
            else 0.0,
            "real_ia.sic_out_of_range": counters["real_ia.sic_out_of_range"] / n_ops,
            "real_ia.symbol_errors": counters["real_ia.symbol_errors"] / n_ops,
            "det_xchannel.run_det_delivery.calls": calls("det_xchannel.run_det_delivery")
            / n_ops,
            "det_xchannel.run_det_delivery.ms": total_s("det_xchannel.run_det_delivery")
            / n_ops
            * 1e3,
            "model.draw_csi.calls": calls("model.draw_csi") / n_ops,
            "model.draw_csi.self_ms": self_s("model.draw_csi") / n_ops * 1e3,
            "model.ndt_from_latency.calls": calls("model.ndt_from_latency") / n_ops,
        }
    )
    for check, _ in cli.ALL_CHECKS:
        name = f"cli.verify.{check}"
        m[f"{name}.ms"] = total_s(name, op_mask=in_verify) * 1e3
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    import fran_d2d
    from fran_d2d import cli

    package_dir = Path(fran_d2d.__file__).resolve().parent
    if package_dir != ROOT / "src" / "fran_d2d":
        print(f"benchmark: imported fran_d2d from {package_dir}, not src/", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text()).get(args.workload, {})
    workload = WORKLOADS[args.workload](golden)
    rng = random.Random(f"{args.workload}:{args.seed}")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        metrics, tally = trace(workload, cli, rng, args.seconds, out_path)
        result = {
            "layer_metrics": metrics,
            "traced_ops": len(workload.pool),
            "trace_file": str(out_path.relative_to(ROOT)),
        }
    else:
        result, tally = measure(workload, cli, rng, args.seconds)
    result.update(
        correct=tally.correct,
        problems=tally.problems,
        attempted=tally.attempted,
        failed=tally.failed,
        python=sys.version.split()[0],
        numpy=np.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
