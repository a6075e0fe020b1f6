"""Spans and counters for the traced run, recorded from outside qschur.

`install(tracer)` replaces each traced function at the name its caller looks
it up under (a module global such as ``superspace.rank_of_int_rows``, or a
class attribute such as ``SparseMat.__matmul__``) with a wrapper that opens a
span, and returns a function that puts the originals back.  Nothing under
``src/`` changes.

A span is (name, start, end, parent, op).  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

OP = "op"  # the root span of one timed operation


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for an op root
    op: int
    nested: bool  # a same-named span is already open around this one


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._op = -1

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op,
                               self._open[name] > 0))
        self._stack.append(sid)
        self._open[name] += 1
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def at_op_root(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].name == OP

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        sid = self.open(OP)
        try:
            yield
        finally:
            self.close(sid)

    # -- derived figures -------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def seconds(self, name: str) -> float:
        """Time inside spans of this name, counting recursive calls once."""
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and not s.nested)

    def self_seconds(self, name: str) -> float:
        own = self.self_times()
        return sum(t for s, t in zip(self.spans, own) if s.name == name)


def _spanned(tracer, name, fn, tally=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.counts[name + ".calls"] += 1
        if tally is not None:
            tally(tracer.counts, args, out)
        return out
    return traced


def _counted(counts, key, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _tally_assemble(counts, args, out):
    survivors, rows = out
    counts["centralizer.assemble.unknowns"] += survivors
    counts["centralizer.assemble.rows"] += len(rows)


def _tally_membership(counts, args, out):
    images, gens = args
    counts["centralizer.membership.products"] += len(images) * len(gens)


def _tally_eliminate(counts, args, out):
    (rows,) = args
    counts["kernels.eliminate.rows_in"] += len(rows)
    counts["kernels.eliminate.nnz_in"] += sum(map(len, rows))
    counts["kernels.eliminate.rank_out"] += out


def _tally_kron(counts, args, out):
    counts["superspace.graded_kron.nnz_out"] += len(out.entries)


def _tally_images(counts, args, out):
    counts["functor.images"] += len(out)
    if args[0] == "walled":
        # the identity seeds the closure; every other image is an accepted
        # candidate, and each candidate tried costs one rank_at call
        counts["functor.walled.kept"] += len(out) - 1


RATFUNC_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                      "__pow__", "inverse")


def install(tracer: Tracer):
    """Wrap every traced name; return (restore function, names not found).

    A name that is missing (renamed or removed in src/) is reported instead
    of failing the run, so that the remaining layers are still measured.
    """
    from qschur import centralizer, diagrams, functor, osp, qgl, scalar, superspace

    SparseMat, SuperSpace = superspace.SparseMat, superspace.SuperSpace
    spans = [
        (centralizer, "commutant_dim_osp", "centralizer.commutant", None),
        (centralizer, "commutant_dim_glq", "centralizer.commutant", None),
        (centralizer, "assemble_commutant_rows", "centralizer.assemble",
         _tally_assemble),
        (centralizer, "check_membership", "centralizer.membership",
         _tally_membership),
        (centralizer, "ranks_at", "centralizer.span", None),
        (centralizer, "image_basis", "functor.image_basis", _tally_images),
        (centralizer, "evaluate", "functor.evaluate", None),
        (superspace, "int_rank", "superspace.int_rank", None),
        (superspace, "rank_of_int_rows", "kernels.eliminate", _tally_eliminate),
        (superspace, "_specialize_row", "superspace.specialize", None),
        (SparseMat, "specialize", "superspace.specialize", None),
        (superspace, "graded_kron", "superspace.graded_kron", _tally_kron),
        (qgl, "graded_kron", "superspace.graded_kron", _tally_kron),
        (SuperSpace, "tensor", "superspace.tensor", None),
        (SparseMat, "__matmul__", "superspace.matmul", None),
        (functor, "rank_at", "superspace.rank_at", None),
        (functor, "evaluate", "functor.evaluate", None),
        (qgl, "act_on_signs", "qgl.symmetry_gens", None),
        (osp, "leibniz_tensor", "osp.leibniz_tensor", None),
        (osp, "brauer_rep", "osp.brauer_rep", None),
        (diagrams.RibbonWord, "validate", "diagrams.validate", None),
    ]
    counters = [(scalar.RatFunc, attr, "scalar.ratfunc.calls")
                for attr in RATFUNC_ARITHMETIC]
    counters.append((scalar.RatFunc, "specialize", "scalar.specialize.calls"))

    saved, missing = [], []

    def patch(owner, attr, make):
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    for owner, attr, name, tally in spans:
        patch(owner, attr, lambda fn, n=name, t=tally: _spanned(tracer, n, fn, t))
    for owner, attr, key in counters:
        patch(owner, attr, lambda fn, k=key: _counted(tracer.counts, k, fn))

    # fft_report's osp branch ranks its images with the int_rank it imported;
    # called straight from the op, that call is the span rank.
    def span_or_rank(fn):
        inner = _spanned(tracer, "superspace.int_rank", fn)
        outer = _spanned(tracer, "centralizer.span", inner)

        @functools.wraps(fn)
        def int_rank(rows):
            return (outer if tracer.at_op_root() else inner)(rows)
        return int_rank

    patch(centralizer, "int_rank", span_or_rank)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore, missing


def lru_totals(module) -> tuple[int, int]:
    """(hits, misses) summed over the module's own lru-cached functions."""
    hits = misses = 0
    for fn in vars(module).values():
        if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == module.__name__:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


# name -> (unit, the end-to-end metrics it should move).  Keep in step with
# the per_layer list of BENCHMARK.json; the self-test checks that it is.
LAYER_METRICS = {
    "centralizer.commutant.s": ("s", "wall_s on fft-osp and fft-glq; nothing on links"),
    "centralizer.assemble.s": ("s", "wall_s and peak_rss_mb on fft-osp"),
    "centralizer.assemble.rows": ("count", "wall_s and peak_rss_mb on fft-osp"),
    "centralizer.assemble.unknowns": ("count", "wall_s and peak_rss_mb on fft-osp"),
    "centralizer.membership.s": ("s", "wall_s on fft-glq and fft-osp"),
    "centralizer.membership.products": ("count", "wall_s on fft-glq and fft-osp"),
    "centralizer.span.s": ("s", "wall_s on fft-glq"),
    "centralizer.point_retries": ("count", "error_rate and wall_s on fft-glq"),
    "kernels.eliminate.s": ("s", "wall_s on fft-osp (most) and fft-glq; not links"),
    "kernels.eliminate.calls": ("count", "wall_s on fft-osp and fft-glq"),
    "kernels.eliminate.rows_in": ("count", "wall_s on fft-osp and fft-glq"),
    "kernels.eliminate.nnz_in": ("count", "wall_s on fft-osp and fft-glq"),
    "kernels.eliminate.rank_out": ("count", "wall_s on fft-osp and fft-glq"),
    "kernels.useful_row_frac": ("ratio", "wall_s on fft-osp (an early stop raises it)"),
    "superspace.int_rank.self_s": ("s", "wall_s on fft-glq"),
    "superspace.specialize.s": ("s", "wall_s on fft-glq"),
    "superspace.specialize.calls": ("count", "wall_s on fft-glq"),
    "superspace.rank_at.calls": ("count", "wall_s on fft-glq"),
    "superspace.graded_kron.s": ("s", "op_p50_ms, op_p90_ms and wall_s on links"),
    "superspace.graded_kron.calls": ("count", "op_p50_ms, op_p90_ms and wall_s on links"),
    "superspace.graded_kron.nnz_out": ("count", "op_p50_ms, op_p90_ms and wall_s on links"),
    "superspace.tensor.s": ("s", "op_p50_ms, op_p90_ms and wall_s on links"),
    "superspace.tensor.calls": ("count", "op_p50_ms, op_p90_ms and wall_s on links"),
    "superspace.matmul.s": ("s", "links; membership time on fft-osp and fft-glq"),
    "superspace.matmul.calls": ("count", "links; membership time on fft-osp and fft-glq"),
    "scalar.ratfunc.calls": ("count", "links; membership on fft-glq"),
    "scalar.specialize.calls": ("count", "links; membership on fft-glq"),
    "functor.evaluate.s": ("s", "every links metric"),
    "functor.evaluate.calls": ("count", "every links metric"),
    "functor.image_basis.s": ("s", "wall_s on fft-glq"),
    "functor.images": ("count", "wall_s on fft-glq"),
    "functor.walled.accept_frac": ("ratio", "wall_s on fft-glq"),
    "qgl.symmetry_gens.s": ("s", "wall_s on fft-glq"),
    "osp.leibniz_tensor.s": ("s", "wall_s on fft-osp"),
    "osp.brauer_rep.calls": ("count", "wall_s on fft-osp"),
    "osp.brauer_rep.s": ("s", "wall_s on fft-osp"),
    "qgl.lru_hits": ("count", "setup_s"),
    "qgl.lru_misses": ("count", "setup_s"),
    "osp.lru_hits": ("count", "setup_s"),
    "osp.lru_misses": ("count", "setup_s"),
    "diagrams.validate.s": ("s", "wall_s and op latency on links"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
}


def layer_values(tracer: Tracer, retries: int, overhead_s: float) -> dict:
    """Every LAYER_METRICS value from one traced pass."""
    import qschur.osp
    import qschur.qgl

    c = tracer.counts
    rows_in = c["kernels.eliminate.rows_in"]
    tried = c["superspace.rank_at.calls"]
    values = {
        "centralizer.point_retries": retries,
        "kernels.useful_row_frac":
            c["kernels.eliminate.rank_out"] / rows_in if rows_in else 0.0,
        "superspace.int_rank.self_s": tracer.self_seconds("superspace.int_rank"),
        "functor.walled.accept_frac":
            c["functor.walled.kept"] / tried if tried else 0.0,
        "trace.overhead_s": overhead_s,
    }
    for prefix, module in (("qgl", qschur.qgl), ("osp", qschur.osp)):
        values[f"{prefix}.lru_hits"], values[f"{prefix}.lru_misses"] = \
            lru_totals(module)
    for name in LAYER_METRICS:
        if name in values:
            continue
        if name.endswith(".s"):
            values[name] = tracer.seconds(name[:-2])
        else:
            values[name] = c[name]
    return values
