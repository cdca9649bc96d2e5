"""In-memory span recorder wrapped around the public functions of each
ndppmap module, and the per-layer metrics derived from its spans.

The wrappers are installed only around traced executions of an operation and
removed afterwards, so untraced executions run the unmodified functions.
Spans are no finer than one marginal, one neighbourhood scan, one suite
function or one sampler call: per-set, per-pair, per-cut and per-step rates
are busy time divided by exact counts, never per-item spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import sys

from speed import clock

# (module, attribute, span name, count taken from (result, args, kwargs)).
# A count of None records no count for that span.
TARGETS = [
    ("ndppmap.cli", "main", "cli", None),
    ("ndppmap.kernel", "load_kernel", "kernel.load", None),
    ("ndppmap.kernel", "is_npsd", "kernel.is_npsd", None),
    ("ndppmap.localsearch", "map_inference", "localsearch.map_inference", None),
    ("ndppmap.greedy", "induced_greedy", "greedy", lambda r, a, kw: len(r.picks)),
    ("ndppmap.greedy", "standard_greedy", "greedy", lambda r, a, kw: len(r.picks)),
    ("ndppmap.charpoly", "superset_marginal", "charpoly.marginal", None),
    ("ndppmap.localsearch", "local_search", "localsearch", lambda r, a, kw: r[1].iterations),
    ("ndppmap.setdist", "KernelDistribution.neighborhood_values", "setdist.neighborhood",
     lambda r, a, kw: len(r)),
    ("ndppmap.setdist", "kernel_table", "setdist.kernel_table", None),
    ("ndppmap.exchange", "verify_exchange_all_pairs", "exchange.all_pairs",
     lambda r, a, kw: r["pairs"]),
    ("ndppmap.exchange", "brute_force_map", "exchange.brute_force", None),
    ("ndppmap.coreset", "build_plan", "coreset.build_plan", None),
    ("ndppmap.coreset", "compose_and_report", "coreset.compose", None),
    ("ndppmap.downup", "build_downup", "downup.build", lambda r, a, kw: len(r.states)),
    ("ndppmap.downup", "chain_checks", "downup.chain_checks", None),
    ("ndppmap.downup", "spectral_gap", "downup.spectral_gap", None),
    ("ndppmap.downup", "conductance", "downup.conductance",
     lambda r, a, kw: 2 ** len(a[0].states) - 2 if r.exact else 0),
    ("ndppmap.downup", "sample_walk", "downup.sample", lambda r, a, kw: len(r) - 1),
]

# Counts that must repeat exactly for one seed; later changes may cite them.
EXACT_COUNTS = [
    "fail_frac",
    "charpoly.marginal.calls",
    "charpoly.marginal.failed",
    "greedy.steps",
    "setdist.neighborhood.sets",
    "localsearch.scans",
    "localsearch.iterations",
    "exchange.pairs",
    "coreset.failed",
    "downup.states",
    "downup.conductance.cuts",
    "downup.sample.steps",
]


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None
    count: int | None


class Tracer:
    """Records spans (name, start, end, parent, operation id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches = self._build_patches()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op, None, None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.count = int(count(out, args, kwargs))
            return out

        return traced

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every binding of every target.

        A module that imported a target by name holds its own binding, so each
        ndppmap module namespace holding the original object is patched.
        """
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ndppmap"]
        patches = []
        for modname, attr, span_name, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig, self._wrap(span_name, orig, count)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span_name, orig, count)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        patches.append((mod, name, orig, wrapper))
        return patches

    @contextlib.contextmanager
    def tracing(self, op):
        """Record spans of operation `op` while the wrappers are installed."""
        self.op = op
        for owner, name, _orig, wrapper in self._patches:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, orig, _wrapper in self._patches:
                setattr(owner, name, orig)
            self.op = None

    def dump(self):
        return [dataclasses.asdict(s) for s in self.spans]


_NO_SPANS = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "errors": 0, "wasted_s": 0.0}


def layer_metrics(spans, ops):
    """Per-operation layer metrics over the spans of the operations in `ops`.

    `ops` maps operation id to its execution record.  Busy and self times and
    counts are divided by the number of operations attempted; rates are busy
    time divided by the matching exact count.  Returns (metrics, table), the
    table giving calls, busy and self time per operation for every span name.
    """
    nops = len(ops)
    failed_ops = {op for op, rec in ops.items() if rec["error"] is not None}
    # Span times are scaled to the nominal host speed like the operation's.
    scale = {op: rec["norm_s"] / rec["latency_s"] if rec["latency_s"] > 0 else 1.0
             for op, rec in ops.items()}
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    agg = {}
    marginal_us = []
    scans = 0
    for i, s in enumerate(spans):
        if s.op not in ops:
            continue
        a = agg.setdefault(s.name, dict(_NO_SPANS))
        dur = (s.end - s.start) * scale[s.op]
        a["calls"] += 1
        a["busy_s"] += dur
        a["self_s"] += dur - child[i] * scale[s.op]
        a["count"] += s.count or 0
        a["errors"] += s.error is not None
        a["wasted_s"] += dur if s.op in failed_ops else 0.0
        if s.name == "charpoly.marginal":
            marginal_us.append(dur * 1e6)
        if s.name == "setdist.neighborhood" and s.parent is not None:
            scans += spans[s.parent].name == "localsearch"
    def get(name, key):
        return agg.get(name, _NO_SPANS)[key]

    def rate(name, n, scale):
        return get(name, "busy_s") / n * scale if n else 0.0

    calls = get("charpoly.marginal", "calls")
    sets = get("setdist.neighborhood", "count")
    iterations = get("localsearch", "count")
    pairs = get("exchange.all_pairs", "count")
    cuts = get("downup.conductance", "count")
    steps = get("downup.sample", "count")
    totals = {
        "op.busy_s": sum(rec["norm_s"] for rec in ops.values()),
        "fail_frac": len(failed_ops),
        "charpoly.marginal.calls": calls,
        "charpoly.marginal.failed": get("charpoly.marginal", "errors"),
        "greedy.steps": get("greedy", "count"),
        "greedy.wasted_s": get("greedy", "wasted_s"),
        "setdist.neighborhood.sets": sets,
        "localsearch.scans": scans,
        "localsearch.iterations": iterations,
        "cli.self_s": get("cli", "self_s"),
        "greedy.self_s": get("greedy", "self_s"),
        "exchange.pairs": pairs,
        "coreset.failed": get("coreset.build_plan", "errors") + get("coreset.compose", "errors"),
        "downup.states": get("downup.build", "count"),
        "downup.conductance.cuts": cuts,
        "downup.sample.steps": steps,
    }
    for name in ("charpoly.marginal", "greedy", "setdist.neighborhood", "localsearch",
                 "kernel.is_npsd", "kernel.load", "setdist.kernel_table", "exchange.all_pairs",
                 "exchange.brute_force", "coreset.build_plan", "coreset.compose", "downup.build",
                 "downup.spectral_gap", "downup.conductance", "downup.sample"):
        totals[f"{name}.busy_s"] = get(name, "busy_s")
    metrics = {name: value / nops for name, value in totals.items()}
    metrics.update({
        "charpoly.marginal.p50_us": statistics.median(marginal_us) if marginal_us else 0.0,
        "charpoly.marginal.fail_ratio": totals["charpoly.marginal.failed"] / calls if calls else 0.0,
        "setdist.neighborhood.us_per_set": rate("setdist.neighborhood", sets, 1e6),
        "localsearch.improve_ratio": iterations / scans if scans else 0.0,
        "exchange.us_per_pair": rate("exchange.all_pairs", pairs, 1e6),
        "downup.conductance.ns_per_cut": rate("downup.conductance", cuts, 1e9),
        "downup.sample.us_per_step": rate("downup.sample", steps, 1e6),
    })
    table = {
        name: {k: a[k] / nops for k in ("calls", "busy_s", "self_s")}
        for name, a in sorted(agg.items())
    }
    return metrics, table
