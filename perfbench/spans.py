"""Per-layer tracing from outside the package, and the arithmetic on spans.

`Tracer.install` wraps the public functions named in `TARGETS` and rebinds
every module attribute that refers to them (`geometry.feasible`,
`invariants.meeting_faces`, ...), so calls made inside the package are
recorded too. Each call appends one span

    (name, start, end, parent index, op id, value)

to an in-memory list; `value` is a per-call count picked by `MEASURES`
(rows handed to `feasible`, faces found, ...), 0 where none is taken.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer module -> public functions wrapped in traced runs
TARGETS = {
    "cli": ("main", "parse_input", "build_report"),
    "torus": ("make_extension", "subgroup_from_kernel"),
    "geometry": ("toric_stack_data", "meeting_faces", "face_meets_slice",
                 "moment_polytope", "normalized_volume"),
    "rational": ("feasible", "inv", "rank", "solve"),
    "lattice": ("smith_normal_form", "hermite_normal_form", "det"),
    "invariants": ("stabilizer_on_face", "inertia_table", "labeled_polytope",
                   "stack_summary", "stages_verify"),
    "numeric": ("run_numeric_report", "sample_level_points", "check_moment_equation",
                "check_local_freeness", "check_groupoid_transversality",
                "check_reduced_kernel_rank"),
}


def _rows_in(args, kwargs, result):
    eqs = kwargs.get("equalities", args[0] if args else ())
    ineqs = kwargs.get("inequalities", args[1] if len(args) > 1 else ())
    return len(eqs) + len(ineqs)


def _entry_bits(args, kwargs, result):
    return max((abs(int(x)).bit_length()
                for m in (result.U, result.D, result.V) for x in m.flat), default=0)


def _stabilizer_key(args, kwargs, result):
    data, face = args[0], args[1]
    return hash((tuple(int(x) for x in data.lattice_hat.flat),
                 tuple(int(x) for x in data.B.flat), data.N, face.zeros))


MEASURES = {
    "rational.feasible": _rows_in,
    "geometry.meeting_faces": lambda args, kwargs, result: len(result),
    "lattice.smith_normal_form": _entry_bits,
    "invariants.stabilizer_on_face": _stabilizer_key,
    "numeric.sample_level_points": lambda args, kwargs, result: len(result),
    "numeric.run_numeric_report": lambda args, kwargs, result: result.discarded_ill_conditioned,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, package: str = "toricstacks"):
        self.package = package
        self.spans: list[tuple] = []
        self.op = -1  # id of the op in progress, set by the caller
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, MEASURES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, 0)
            if measure is not None:
                spans[idx] = (name, start, end, parent, self.op, measure(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"{self.package}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def tail(values, beyond: int = 10):
    """Highest nearest-rank percentile with at least `beyond` values above it.

    Returns (value, percentile, values above it). With `beyond` or fewer
    values there is no such percentile, and the maximum is returned as the
    100th.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        return ordered[-1], 100.0, 0
    rank = count - beyond
    return ordered[rank - 1], 100.0 * rank / count, beyond


def _under(spans, span, ancestor: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, ops: int) -> dict:
    """Per-layer metrics of one traced pass over `ops` ops."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    values: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name in MEASURES:
            values.setdefault(name, []).append((span[4], span[5]))

    def vals(name):
        return [v for _, v in values.get(name, [])]

    rows = vals("rational.feasible")
    faces = sum(vals("geometry.meeting_faces"))
    # feasibility calls spent enumerating faces, pruned subsets included
    attempts = sum(1 for span in spans if span[0] == "rational.feasible"
                   and _under(spans, span, "geometry.meeting_faces"))
    out = {
        "rational.feasible.calls": calls.get("rational.feasible", 0),
        "rational.feasible.rows_in": sum(rows),
        "rational.feasible.max_rows_in": max(rows, default=0),
        "geometry.face_meets_slice.calls": calls.get("geometry.face_meets_slice", 0),
        "geometry.faces_found": faces,
        "geometry.face_hit_ratio": faces / attempts if attempts else 0.0,
        "lattice.smith_normal_form.calls": calls.get("lattice.smith_normal_form", 0),
        "lattice.smith_normal_form.max_entry_bits": max(vals("lattice.smith_normal_form"), default=0),
        "invariants.stabilizer_on_face.calls": calls.get("invariants.stabilizer_on_face", 0),
        "invariants.stabilizer_on_face.distinct": len(set(values.get("invariants.stabilizer_on_face", []))),
        "geometry.meeting_faces.calls_per_op": calls.get("geometry.meeting_faces", 0) / ops if ops else 0.0,
        "numeric.sample_level_points.samples": sum(vals("numeric.sample_level_points")),
        "numeric.discarded_ill_conditioned": sum(vals("numeric.run_numeric_report")),
    }
    for name in ("rational.inv", "rational.rank", "rational.solve"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for layer, names in TARGETS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out
