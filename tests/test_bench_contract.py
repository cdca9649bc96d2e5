"""The benchmark's tracer (perfbench/spans.py) wraps named ndppmap functions
and methods.  A rename or a bypassed call would silently leave traced runs
without spans, so this checks that every target still binds and that one
small MAP run produces the spans the per-layer metrics count."""

import importlib
from pathlib import Path

import ndppmap.cli  # noqa: F401  (the tracer patches every loaded ndppmap module)
import ndppmap.localsearch
from ndppmap.instances import skew_block

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
    assert counts["greedy"] == [k]
    assert counts["localsearch"] == [report["iterations"]]
