"""Span recording around the public functions of the fran_d2d layers.

Tracing is installed from outside the package: every public function of the
six layer modules is replaced by a wrapper at each place it is looked up,
including module namespaces that imported it by value (``fran_schemes``
imports ``draw_csi`` and ``delta_x``, ``cli`` keeps the verify checks in the
``ALL_CHECKS`` tuple) and the two ``AlignedDemodulator`` methods.

Spans live in flat in-memory arrays (name, start, end, parent span, op id)
until the run ends; ``write`` then saves them in one ``.npz`` file.  Self
time is computed per layer: a span's duration minus the part of it that
child spans of *other* layers cover.  Nested spans of the same layer are
folded into their outermost same-layer ancestor, so no time is counted
twice.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "ndt_formulas", "det_xchannel", "real_ia", "fran_schemes", "cli")

# Op id of spans recorded outside the timed ops (the traced verify run).
VERIFY_OP = -2


class SpanRecorder:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.op_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = -1
        self.on = False
        self.counters: collections.Counter = collections.Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, label=None, after=None):
        """Wrap ``fn`` so each call records one span while ``on`` is set.

        ``label(args, kwargs)`` may refine the span name per call; ``after``
        updates ``counters`` from the call's result, during timed ops only.
        """
        fixed = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            nid = rec.name_id(label(args, kwargs)) if label is not None else fixed
            idx = len(rec.starts)
            rec.name_ids.append(nid)
            rec.parents.append(rec.stack[-1])
            rec.op_ids.append(rec.op)
            rec.ends.append(0.0)
            rec.stack.append(idx)
            rec.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = perf_counter()
                rec.stack.pop()
            if after is not None and rec.op >= 0:
                after(rec.counters, args, result)
            return result

        return traced

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.op_ids, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def _scheme_label(args, kwargs) -> str:
    scheme = kwargs["scheme"] if "scheme" in kwargs else args[2]
    return f"fran_schemes.run_end_to_end:{scheme}"


def _after_demodulate(counters, args, result) -> None:
    counters["real_ia.candidates_visited"] += args[0].candidate_count


def _after_sic(counters, args, result) -> None:
    counters["real_ia.sic_out_of_range"] += not result.in_range


def _after_ia_delivery(counters, args, rep) -> None:
    counters["real_ia.ia_runs"] += 1
    if rep.exact_demod:
        counters["real_ia.exact_runs"] += 1
        counters["real_ia.symbol_errors"] += round(
            rep.symbol_error_rate * 2 * rep.n_uses * (rep.config.n_d + 1)
        )


def _after_end_to_end(counters, args, rep) -> None:
    if rep.exact:
        counters["fran_schemes.bits_delivered"] += 2 * args[0].file_bits


_AFTER = {
    "real_ia.AlignedDemodulator.demodulate": _after_demodulate,
    "real_ia.sic_resolve": _after_sic,
    "real_ia.run_ia_delivery": _after_ia_delivery,
    "fran_schemes.run_end_to_end": _after_end_to_end,
}


def install(rec: SpanRecorder) -> None:
    """Wrap every public layer function wherever the package looks it up."""
    pkg = importlib.import_module("fran_d2d")
    modules = {layer: importlib.import_module(f"fran_d2d.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            label = _scheme_label if name == "fran_schemes.run_end_to_end" else None
            wrapped[obj] = rec.wrap(obj, name, label=label, after=_AFTER.get(name))
    for mod in (pkg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    demod = modules["real_ia"].AlignedDemodulator
    for method in ("__init__", "demodulate"):
        name = f"real_ia.AlignedDemodulator.{method}"
        setattr(demod, method, rec.wrap(getattr(demod, method), name, after=_AFTER.get(name)))

    cli = modules["cli"]
    cli.ALL_CHECKS = tuple(
        (check, rec.wrap(fn, f"cli.verify.{check}")) for check, fn in cli.ALL_CHECKS
    )


class SpanTable:
    """Recorded spans as arrays, with per-layer self time attached."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.names = list(rec.names)
        self.name_id = np.frombuffer(rec.name_ids, dtype=np.uint16).astype(np.int64)
        self.parent = np.frombuffer(rec.parents, dtype=np.int64)
        self.op = np.frombuffer(rec.op_ids, dtype=np.int64)
        self.dur = np.frombuffer(rec.ends, dtype=np.float64) - np.frombuffer(
            rec.starts, dtype=np.float64
        )
        layer_of_name = np.array(
            [LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64
        )
        self.layer = layer_of_name[self.name_id]

        n = self.dur.size
        index = np.arange(n)
        has_parent = self.parent >= 0
        same = has_parent & (self.layer[np.where(has_parent, self.parent, index)] == self.layer)
        # Outermost same-layer ancestor of every span, by pointer jumping.
        top = np.where(same, self.parent, index)
        while not np.array_equal(top[top], top):
            top = top[top]
        self.self_time = np.where(same, 0.0, self.dur)
        cross = has_parent & ~same
        np.subtract.at(self.self_time, top[self.parent[cross]], self.dur[cross])
        self.op_mismatches = int(
            np.count_nonzero(self.op[has_parent] != self.op[self.parent[has_parent]])
        )

    def mask(self, op_mask: np.ndarray, names=(), prefix: str | None = None) -> np.ndarray:
        """Spans under ``op_mask`` named one of ``names`` or starting with ``prefix``."""
        ids = [
            i
            for i, n in enumerate(self.names)
            if n in names or (prefix is not None and n.startswith(prefix))
        ]
        return op_mask & np.isin(self.name_id, ids)
