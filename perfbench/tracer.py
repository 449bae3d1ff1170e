"""Outside-in tracer for the cylcavity layers.

The tracer never edits the package.  It wraps each layer's public
functions and rebinds every ``cylcavity.*`` module attribute that holds
the same function object, so calls between layers (``modefield`` calling
``bessel_j``, ``enumerate_modes`` calling ``mode_data``, ...) pass through
the wrappers too.  Private helpers are not wrapped; their time is the
self time of the public function that called them.

Each call becomes a span (name, layer, start, end, parent span, op id)
kept in memory.  Self time is a span's duration minus the time its child
spans cover.  Work counts are computed from call arguments and results,
never read from inside the package.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions per layer module, in pipeline order.
PUBLIC = {
    "bessel": ("bessel_j", "bessel_j_prime", "bessel_zero", "bessel_prime_zero", "zero_table"),
    "spectrum": ("enumerate_modes", "mode_data"),
    "modefield": ("psi_grid", "u_grid", "curl_u_grid", "psi", "u_mode", "curl_u", "to_cartesian"),
    "verify": ("quadrature_rule", "default_rule", "integrate_cavity", "wall_samples",
               "check_scalar_orthonormality", "check_vector_orthonormality",
               "check_curl_identity", "check_boundary"),
    "synthesis": ("evolve", "electric_field_grid", "magnetic_field_grid", "electric_field",
                  "magnetic_field", "field_samplers", "total_energy", "mode_sum_energy",
                  "zero_point_energy", "project", "maxwell_residual"),
    "stateio": ("dumps_state", "loads_state", "save_state", "load_state"),
    "cli": ("main",),
}
LAYERS = tuple(PUBLIC)

# Per-layer metric -> unit.  Values are per traced op unless the unit
# says otherwise.
METRIC_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "calls/op"), ("self_s", "s/op"), ("errors", "errors/op"))},
    "verify.pair_nodes": "nodes/op",
    "verify.pair_nodes_per_s": "nodes/s",
    "bessel.eval_s": "s/op",
    "bessel.points": "points/op",
    "bessel.zero_s": "s/op",
    "bessel.zero_calls": "calls/op",
    "spectrum.modes": "modes/op",
    "modefield.points": "points/op",
    "modefield.bytes_out": "B/op",
    "synthesis.mode_points": "mode_pts/op",
    "synthesis.mode_points_per_s": "mode_pts/s",
    "stateio.bytes": "B/op",
    "cli.bytes_out": "B/op",
    "cli.rows_out": "rows/op",
    "trace.overhead_s": "s",
}

BENCH = "bench"                 # layer of the op span: the benchmark's own time
_EVAL = {"bessel_j", "bessel_j_prime"}
_ZERO = {"bessel_zero", "bessel_prime_zero", "zero_table"}
_COMPLEX_BYTES = 16


def _points(r, phi, z) -> int:
    return int(np.prod(np.broadcast_shapes(np.shape(r), np.shape(phi), np.shape(z))))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rule_nodes(rule) -> int:
    return rule.nr * rule.nphi * rule.nz


# Work counters: name -> f(args, kwargs, result) -> {counter: amount}.
def _count_grid(ncomp):
    def count(args, kwargs, result):
        n = _points(*(_arg(args, kwargs, i, k) for i, k in ((1, "r"), (2, "phi"), (3, "z"))))
        return {"modefield.points": n, "modefield.bytes_out": n * ncomp * _COMPLEX_BYTES}
    return count


def _count_pairs(grams):
    def count(args, kwargs, result):
        n = len(result.modes)
        return {"verify.pair_nodes": grams * n * n * _rule_nodes(_arg(args, kwargs, 1, "rule"))}
    return count


def _count_field_grid(args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    pts = _points(*(_arg(args, kwargs, i, k) for i, k in ((1, "r"), (2, "phi"), (3, "z"))))
    return {"synthesis.mode_points": len(state.entries) * pts}


COUNTERS = {
    "bessel_j": lambda a, k, res: {"bessel.points": int(np.size(_arg(a, k, 1, "x")))},
    "mode_data": lambda a, k, res: {"spectrum.modes": 1},
    "psi_grid": _count_grid(1),
    "u_grid": _count_grid(3),
    "curl_u_grid": _count_grid(3),
    "check_scalar_orthonormality": _count_pairs(1),
    "check_vector_orthonormality": _count_pairs(1),
    "check_curl_identity": _count_pairs(2),
    "electric_field_grid": _count_field_grid,
    "magnetic_field_grid": _count_field_grid,
    "project": lambda a, k, res: {
        "synthesis.mode_points": len(res) * _rule_nodes(_arg(a, k, 3, "rule"))},
    "dumps_state": lambda a, k, res: {"stateio.bytes": len(res)},
    "loads_state": lambda a, k, res: {"stateio.bytes": len(_arg(a, k, 0, "text"))},
}


class Tracer:
    """Span recorder; install() wraps the package, uninstall() restores it.

    The wrappers are built once, at construction, after importing every
    layer module.
    """

    def __init__(self):
        self.names: list = []           # span name table, index -> (name, layer)
        self.spans: list = []           # (name_id, start, end, parent, op, failed)
        self.counters: dict = defaultdict(float)
        self.unobserved: list = []
        self._stack: list = []
        self._op = -1
        self._op_nid = self._name_id("op", BENCH)
        self._patches: list = []        # (module, attribute, original, wrapper)
        self._build_patches()

    # -------------------------------------------------------------- spans

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append((name, layer))
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        counter = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self._op, failed)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counters[key] += amount
            return result

        return traced

    def begin_op(self, op: int) -> int:
        """Open the root span of one op; its self time is the benchmark's own."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append((self._op_nid, time.perf_counter(), None, -1, op, False))
        return self._stack[-1]

    def end_op(self, failed: bool = False) -> None:
        idx = self._stack.pop()
        nid, t0, _, parent, op, _ = self.spans[idx]
        self.spans[idx] = (nid, t0, time.perf_counter(), parent, op, failed)
        self._op = -1

    def add_spans(self, root: int, names, rows) -> None:
        """Merge spans recorded in another process under op span `root`.

        perf_counter is a system-wide monotonic clock, so the child's
        times sit on the same axis as the parent's.
        """
        ids = [self._name_id(name, layer) for name, layer in names]
        base = len(self.spans)
        op = self.spans[root][4]
        for nid, t0, t1, parent, _, failed in rows:
            self.spans.append((ids[nid], t0, t1, root if parent < 0 else base + parent,
                               op, failed))

    # ------------------------------------------------------ (un)patching

    def install(self) -> None:
        """Rebind every wrapper; names missing from the package were listed
        in ``unobserved`` at construction."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def _build_patches(self) -> None:
        homes = {}
        for layer in PUBLIC:
            try:
                homes[layer] = importlib.import_module(f"cylcavity.{layer}")
            except ImportError:
                homes[layer] = None
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cylcavity" or key.startswith("cylcavity."))]
        for layer, names in PUBLIC.items():
            home = homes[layer]
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.unobserved.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(fn, name, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapper))

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    # ------------------------------------------------------------ results

    def self_times(self):
        """Per-span self time: duration minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _, _), c in zip(self.spans, child)]

    def layer_totals(self) -> dict:
        """Sums over all recorded spans, keyed like the per-layer metrics."""
        out = defaultdict(float)
        for (nid, t0, t1, parent, op, failed), self_s in zip(self.spans, self.self_times()):
            name, layer = self.names[nid]
            if layer != BENCH:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.errors"] += failed
            out[f"{layer}.self_s"] += self_s
            if name in _EVAL:
                out["bessel.eval_s"] += self_s
            elif name in _ZERO:
                out["bessel.zero_s"] += self_s
                out["bessel.zero_calls"] += 1
            elif name in ("check_scalar_orthonormality", "check_vector_orthonormality",
                          "check_curl_identity"):
                out["verify.pair_s"] += self_s
            if layer == BENCH:
                out["bench.wall_s"] += t1 - t0
        for key, value in self.counters.items():
            out[key] += value
        return out

    def dump(self, path) -> None:
        """Write the spans out as CSV (one row per span)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,name,layer,start,end,parent,op,failed\n")
            for i, (nid, t0, t1, parent, op, failed) in enumerate(self.spans):
                name, layer = self.names[nid]
                fh.write(f"{i},{name},{layer},{t0!r},{t1!r},{parent},{op},{int(failed)}\n")
