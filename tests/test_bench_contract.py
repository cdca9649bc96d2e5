"""The benchmark's tracer (perfbench/spans.py) wraps named ndppmap functions
and methods.  A rename or a bypassed call would silently leave traced runs
without spans, so this checks that every target still binds and that one
small MAP run produces the spans the per-layer metrics count.  The benchmark
also calls ndppmap with positional arguments, so each of those calls must
still bind to its function's signature."""

import importlib
import inspect
import math
from pathlib import Path

import pytest

import ndppmap.cli  # noqa: F401  (the tracer patches every loaded ndppmap module)
import ndppmap.localsearch
from ndppmap import cli, downup, exchange, instances
from ndppmap.instances import skew_block
from ndppmap.kernel import Kernel, principal_minor, save_kernel
from ndppmap.setdist import KernelDistribution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_map_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()  # raises if a TARGETS binding is gone
    K = skew_block([4, 3, 2], [100, 200, 300])
    k = 2
    original = ndppmap.localsearch.local_search
    with tracer.tracing(0):
        _, report = ndppmap.localsearch.map_inference(
            K, k, ndppmap.localsearch.SearchConfig(r=2), init="standard"
        )
    assert ndppmap.localsearch.local_search is original
    counts = {}
    for span in tracer.spans:
        counts.setdefault(span.name, []).append(span.count)
    assert report["iterations"] >= 1
    assert len(counts["setdist.neighborhood"]) == report["iterations"] + 1
    assert sum(counts["setdist.neighborhood"]) == report["neighborhood_evals"]
    # each scan counts every set within r = 2 swaps, not a zero from its return type
    scan = sum(math.comb(k, s) * math.comb(K.n - k, s) for s in range(3))
    assert counts["setdist.neighborhood"] == [scan] * (report["iterations"] + 1)
    assert counts["greedy"] == [k]
    assert counts["localsearch"] == [report["iterations"]]


def test_traced_table_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    K = skew_block([4, 3, 2], [100, 200, 300])
    with tracer.tracing(0):
        exchange.brute_force_map(KernelDistribution(K, 2), K.n, 2)
    assert [span.name for span in tracer.spans].count("setdist.kernel_table") == 1


# Every ndppmap call in perfbench/workloads.py, with its arguments as written there.
PERFBENCH_CALLS = [
    (exchange.brute_force_map, "mu", "K.n", "k"),
    (downup.build_downup, "mu", "K.n", "k", "l"),
    (downup.chain_checks, "C", "K.n", "k", "l"),
    (downup.sample_walk, "mu", "S0", 1, "steps", "seed"),
    (downup.tv_distance, "p", "q"),
    (downup.empirical_density, "traj", "C.states"),
    (principal_minor, "K", "rep['set']"),
    (save_kernel, "K", "path"),
    (cli.main, "argv"),
    (KernelDistribution, "K", "k"),
    (Kernel, "L[np.ix_(perm, perm)]"),
    (instances.random_npsd, 40, "s"),
    (instances.lowrank_npsd, 24, 12, "s"),
    (instances.skew_block, "c", "x"),
]


@pytest.mark.parametrize(
    "call", PERFBENCH_CALLS, ids=[call[0].__name__ for call in PERFBENCH_CALLS]
)
def test_perfbench_positional_calls_bind(call):
    fn, *args = call
    inspect.signature(fn).bind(*args)  # raises TypeError when a call no longer fits
