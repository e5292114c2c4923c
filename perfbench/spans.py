"""In-memory spans around cornerjet's public callables, recorded from outside.

``Recorder.install`` wraps each traced callable at every place it is bound:
functions are imported by value (``pullback_halfline`` lives in ``metric``,
``capacity``, ``decompose`` and ``cli`` as well as in ``pullback``), so every
module attribute that *is* the original function is replaced, and methods are
replaced on their class, aliases such as ``__rmul__ = __mul__`` included.
``uninstall`` puts the originals back.

A span holds a name, start and end in ns, its parent span and the id of the
operation it belongs to.  Self time is a span's duration minus the time its
direct children cover and minus the recorder's own bookkeeping inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# (metric label, module, class or None, attribute)
TARGETS = (
    ("jets.Jet1.mul", "cornerjet.jets", "Jet1", "__mul__"),
    ("jets.Jet1.pow", "cornerjet.jets", "Jet1", "__pow__"),
    ("jets.LaurentJet.mul", "cornerjet.jets", "LaurentJet", "__mul__"),
    ("jets.LaurentJet.pow", "cornerjet.jets", "LaurentJet", "__pow__"),
    ("jets.LaurentJet.add", "cornerjet.jets", "LaurentJet", "__add__"),
    ("jets.LaurentJet.truncated", "cornerjet.jets", "LaurentJet", "truncated"),
    ("jets.LaurentJet2.mul", "cornerjet.jets", "LaurentJet2", "__mul__"),
    ("jets.LaurentJet2.slice_x", "cornerjet.jets", "LaurentJet2", "slice_x"),
    ("jets.whitney_descend", "cornerjet.jets", None, "whitney_descend"),
    ("jets.parity_masses", "cornerjet.jets", None, "parity_masses"),
    ("pullback.pullback_halfline", "cornerjet.pullback", None, "pullback_halfline"),
    ("pullback.pullback_quadrant_path", "cornerjet.pullback", None, "pullback_quadrant_path"),
    ("pullback.pullback_sq2", "cornerjet.pullback", None, "pullback_sq2"),
    ("decompose.decompose_halfline", "cornerjet.decompose", None, "decompose_halfline"),
    ("decompose.decompose_quadrant", "cornerjet.decompose", None, "decompose_quadrant"),
    ("decompose.check_gamma_parity", "cornerjet.decompose", None, "check_gamma_parity"),
    ("metric.check_metric", "cornerjet.metric", None, "check_metric"),
    ("capacity.verify_capacity", "cornerjet.capacity", None, "verify_capacity"),
    ("parser.parse_tensor", "cornerjet.parser", None, "parse_tensor"),
    ("parser.parse_plot", "cornerjet.parser", None, "parse_plot"),
    ("numeric.glaeser_landau_check", "cornerjet.numeric", None, "glaeser_landau_check"),
    ("cli.run", "cornerjet.cli", None, "run"),
)
PQP = "pullback.pullback_quadrant_path"


def _coeffs(jet) -> list:
    if hasattr(jet, "coeffs"):
        return jet.coeffs
    return [c for _, _, c in jet.terms()]


class Recorder:
    """Spans of one traced run, kept in flat arrays until ``write``."""

    def __init__(self):
        self.labels = [t[0] for t in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.excluded = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.max_coeff_bits = 0
        self.coeffs_out = 0
        self.pqp_distinct_x = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, idx: int, fn, after):
        name, parent, op, start, end, excluded = (
            self.name, self.parent, self.op, self.start, self.end, self.excluded)
        stack = self.stack
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(rec.op_id)
            end.append(0)
            excluded.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if after is not None:
                t = perf_counter_ns()
                after(args, result)
                if stack:
                    excluded[stack[-1]] += perf_counter_ns() - t
            return result

        return traced

    def _kernel_result(self, is_mul: bool):
        def after(args, result):
            if not hasattr(result, "terms"):
                return
            cs = _coeffs(result)
            if is_mul:
                self.coeffs_out += len(cs)
            for c in cs:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
        return after

    def _pqp_args(self, args, result):
        tensor = args[0]
        for comp in (tensor.a, tensor.b, tensor.c):
            self.pqp_distinct_x += len({i for i, _, _ in comp.terms()})

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cornerjet" or n.startswith("cornerjet."))]
        for idx, (label, module, owner, attr) in enumerate(TARGETS):
            home = sys.modules[module]
            if label.startswith("jets."):
                after = self._kernel_result(label.endswith(".mul"))
            elif label == PQP:
                after = self._pqp_args
            else:
                after = None
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                wrapped = self._wrap(idx, original, after)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        self._patches.append((cls, key, original))
                        setattr(cls, key, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(idx, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer stats per traced pass; counters sum over every pass."""
        n = len(self.start)
        labels = self.labels
        calls = [0] * len(labels)
        self_ns = [0] * len(labels)
        total_ns = [0] * len(labels)
        child_ns = [0] * n
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child_ns[p] += end[sid] - start[sid]
        pqp = labels.index(PQP)
        metric = labels.index("metric.check_metric")
        pullback = labels.index("pullback.pullback_halfline")
        slice_x = labels.index("jets.LaurentJet2.slice_x")
        slices_in_pqp = germs = 0
        for sid in range(n):
            nm = name[sid]
            dur = end[sid] - start[sid]
            calls[nm] += 1
            self_ns[nm] += dur - child_ns[sid] - self.excluded[sid]
            p = parent[sid]
            outermost, under_pqp = True, False
            while p >= 0:
                outermost = outermost and name[p] != nm
                under_pqp = under_pqp or name[p] == pqp
                p = parent[p]
            if outermost:
                total_ns[nm] += dur
            if nm == slice_x and under_pqp:
                slices_in_pqp += 1
            if nm == pullback and parent[sid] >= 0 and name[parent[sid]] == metric:
                germs += 1
        out: dict[str, float] = {}
        for i, label in enumerate(labels):
            out[label + ".calls"] = calls[i] / passes
            out[label + ".self_ms"] = self_ns[i] / passes / 1e6
            out[label + ".total_ms"] = total_ns[i] / passes / 1e6
        out["jets.max_coeff_bits"] = self.max_coeff_bits
        out["jets.coeffs_out"] = self.coeffs_out / passes
        out[PQP + ".window_rounds"] = slices_in_pqp / max(self.pqp_distinct_x, 1)
        out["metric.check_metric.germs_per_call"] = germs / max(calls[metric], 1)
        return out

    def write(self, path, limit: int) -> None:
        """Write the first ``limit`` spans as JSON lines."""
        with open(path, "w") as fh:
            for sid in range(min(limit, len(self.start))):
                fh.write(json.dumps({
                    "id": sid, "name": self.labels[self.name[sid]],
                    "start_ns": self.start[sid], "end_ns": self.end[sid],
                    "parent": self.parent[sid], "op": self.op[sid],
                }) + "\n")
