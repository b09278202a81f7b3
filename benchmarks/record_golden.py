"""Record the reference outputs that the benchmark checks every op against.

Run it at the commit whose outputs are the reference, from any directory:

    python3 benchmarks/record_golden.py

It rewrites ``benchmarks/golden.json``: the SHA-256 of the CSV and JSON text
of every mu slice of the closed-form grid, and the outcome fields of the IA
report for every channel seed of the ia-montecarlo pool.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import worker  # noqa: E402  (needs the src/ path above)


def main() -> int:
    grid = worker.ClosedFormGrid(golden={})
    golden_grid = {"csv": {}, "json": {}}
    for mu, spec in grid.specs.items():
        key = worker._mu_key(mu)
        golden_grid["csv"][key] = worker._digest(grid.cli.render_sweep(spec))
        json_spec = dataclasses.replace(spec, fmt="json")
        golden_grid["json"][key] = worker._digest(grid.cli.render_sweep(json_spec))

    ia = worker.IaMonteCarlo(golden={})
    golden_ia = {str(seed): worker.ia_outcome(ia.op(seed)) for seed in ia.pool}

    doc = {"closed-form-grid": golden_grid, "ia-montecarlo": golden_ia}
    path = BENCH / "golden.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
