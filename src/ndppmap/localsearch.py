"""r-neighborhood local search and the full MAP pipeline.

The loop accepts only moves that beat the incumbent by a factor > 1/zeta and
always jumps to the neighborhood argmax, so the output is certified as an
(r, zeta)-local maximum: mu(S) >= zeta * mu(T) for every T within r swaps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import CapacityError, DomainError, IncompleteSearchError
from .greedy import induced_greedy, standard_greedy
from .kernel import Kernel, _real, _whole, is_npsd
from .setdist import KernelDistribution, SetDistribution, as_set

# Moves per search.  Each gains a factor > 1/zeta, so the cap only stops
# rounding-level cycles.
MAX_ITERS = 1000


@dataclass
class SearchConfig:
    r: int = 2
    zeta: float = 0.5

    def __post_init__(self):
        self.r = _whole("r", self.r)
        if self.r < 1:
            raise DomainError(f"swap radius r must be >= 1, got {self.r}")
        self.zeta = _real("zeta", self.zeta)
        if not 0.0 < self.zeta < 1.0:
            raise DomainError(f"zeta must lie in (0, 1), got {self.zeta}")


@dataclass
class SearchTrace:
    steps: list = field(default_factory=list)  # (set, value, improvement factor)
    certified_local_max: bool = False
    neighborhood_evals: int = 0

    @property
    def iterations(self):
        return len(self.steps)


def local_search(mu: SetDistribution, S0, cfg: SearchConfig):
    """LOCAL-SEARCH-r from the size-k set S0; returns (final set, SearchTrace).
    Raises DomainError unless mu(S0) > 0, and CapacityError when mu of the
    start or of a move is past the float64 range, where no ratio is decided."""
    cur = as_set(S0)
    if len(cur) != mu.k:
        raise DomainError(f"local search needs a size-{mu.k} start, got {cur}")
    cur_val = float(mu.value(cur))
    if not cur_val > 0.0:
        raise DomainError(f"local search needs mu(S0) > 0, got {cur_val}")
    trace = SearchTrace()
    while True:
        if cur_val == math.inf:  # no finite factor certifies against it
            raise CapacityError(f"mu{cur} = inf is past the float64 range")
        vals = mu.neighborhood_values(cur, cfg.r)
        trace.neighborhood_evals += len(vals)
        best, best_val = vals.best()  # the argmax, smallest set on ties
        if cur_val >= cfg.zeta * best_val:
            trace.certified_local_max = True
            return cur, trace
        if trace.iterations >= MAX_ITERS:
            raise IncompleteSearchError(
                f"exceeded MAX_ITERS={MAX_ITERS}",
                best_set=best,
                best_value=best_val,
                trace=trace,
            )
        trace.steps.append((best, best_val, best_val / cur_val))
        cur, cur_val = best, best_val


def map_inference(K: Kernel, k, cfg: SearchConfig | None = None, init="induced"):
    """Greedy initialization followed by local search; returns (set, report).

    ``init`` selects the starting point: "induced" uses the marginal-driven
    greedy (the default, with its approximation guarantee), "standard" uses
    the plain determinant greedy, which can start from a much worse set.
    """
    if cfg is None:
        cfg = SearchConfig()
    k = _whole("k", k)
    if not 1 <= k <= K.n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={K.n}")
    if init not in ("induced", "standard"):
        raise DomainError(f"unknown init {init!r}")
    if not is_npsd(K):
        raise DomainError("kernel is not nPSD: min eigenvalue of (L+L^T)/2 too negative")
    t0 = time.perf_counter()
    mu = KernelDistribution(K, k)
    g = induced_greedy(mu) if init == "induced" else standard_greedy(mu)
    S, trace = local_search(mu, g.final_set, cfg)
    report = {
        "set": list(S),
        "value": float(mu.value(S)),
        "greedy_set": list(g.final_set),
        "greedy_value": g.final_value,
        "iterations": trace.iterations,
        "neighborhood_evals": trace.neighborhood_evals,
        "certified_local_max": trace.certified_local_max,
        "r": cfg.r,
        "zeta": cfg.zeta,
        "timing": {"wall_s": time.perf_counter() - t0},
    }
    return S, report
