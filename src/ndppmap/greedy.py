"""Greedy initialization.

induced_greedy maximizes the superset marginal mu(S u {i}) at every step
and carries a crude C(n,k)-factor guarantee; each step prices all its
candidates with one mu.step_marginals call, which a kernel answers from one
conditioning on S.  standard_greedy is the classic mu(S u {i}) baseline
kept to reproduce its failure on nonsymmetric kernels (all odd minors of a
skew block vanish); each step is one mu.completions(S, D) call over the
one-element rows D of its candidates, one batched determinant for a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibilityError
from .setdist import SetDistribution, as_set, subsets


@dataclass
class GreedyTrace:
    picks: list = field(default_factory=list)  # (chosen index, marginal value)
    final_set: tuple = ()
    final_value: float = 0.0
    conditioned_steps: int = 0  # steps priced from one conditioning on S
    per_candidate_steps: int = 0  # steps priced by one marginal per candidate


def _pick(cands, vals):
    """(candidate, value) at the largest value, by the rule of
    Neighborhood.best() and exchange.brute_force_map: NaN never wins (it
    reads as -inf) and ties go to the first, smallest, candidate."""
    vals = np.where(np.isnan(vals), -np.inf, vals)
    j = int(np.argmax(vals))
    return cands[j], float(vals[j])


def induced_greedy(mu: SetDistribution) -> GreedyTrace:
    """Grow S one element at a time to size mu.k, maximizing the marginal
    mu(S u {i}); ties go to the smallest index."""
    trace = GreedyTrace()
    S = ()
    for _ in range(mu.k):
        cands, vals, conditioned = mu.step_marginals(S)
        if conditioned:
            trace.conditioned_steps += 1
        else:
            trace.per_candidate_steps += 1
        pick, best = _pick(cands, vals)
        if best <= 0.0:
            raise InfeasibilityError(
                f"all marginals vanish extending {S}; mu is zero on extensions"
            )
        S = as_set(S + (pick,))
        trace.picks.append((pick, best))
    trace.final_set = S
    trace.final_value = float(mu.value(S))
    return trace


def standard_greedy(mu: SetDistribution) -> GreedyTrace:
    """Classic greedy on mu(S u {i}) up to size mu.k; ties (including
    all-zero) take the smallest index, so it may end on a zero-mass set.
    Each step prices every S u {i} as one completions call on the core S."""
    if mu.k > mu.n:
        raise DomainError(f"need k <= n, got k={mu.k}, n={mu.n}")
    trace = GreedyTrace()
    S = ()
    for _ in range(mu.k):
        cands = [i for i in range(mu.n) if i not in S]
        pick, best = _pick(cands, mu.completions(S, subsets(cands, 1)))
        S = as_set(S + (pick,))
        trace.picks.append((pick, best))
    trace.final_set = S
    trace.final_value = float(mu.value(S))
    return trace
