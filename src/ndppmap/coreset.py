"""Composable core-sets from 1-neighborhood local maxima.

Each part P contributes the size-k set found by greedy + 1-swap local search
on mu.restrict(P), so it depends on the part alone; a plan keeps the zeta its
core-sets meet.  compose_and_report compares the optimum over the merged
core-sets with that over the full union, and exhibits the swap chain that
certifies the (beta_hat / plan.zeta)^k composition bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, InfeasibilityError
from .exchange import brute_force_map, check_strong_basis_exchange
from .greedy import induced_greedy
from .localsearch import SearchConfig, local_search
from .setdist import SetDistribution, as_set


@dataclass
class PartitionPlan:
    """Disjoint parts, a (1, zeta)-local maximum of mu on each, and that zeta."""

    parts: list = field(default_factory=list)  # disjoint index tuples
    coresets: list = field(default_factory=list)  # one size-k set per part
    zeta: float = 0.5


def coreset_map(mu: SetDistribution, P, zeta=0.5):
    """A (1, zeta)-local maximum of mu restricted to the part P."""
    P = as_set(P)
    if len(P) < mu.k:
        raise DomainError(f"part {P} has fewer than k={mu.k} elements")
    if len(P) == mu.k:
        return P
    nu = mu.restrict(P)
    g = induced_greedy(nu)
    S, _ = local_search(nu, g.final_set, SearchConfig(r=1, zeta=zeta))
    return tuple(P[i] for i in S)


def build_plan(mu: SetDistribution, parts, zeta=0.5) -> PartitionPlan:
    parts, zeta = [as_set(P) for P in parts], SearchConfig(r=1, zeta=zeta).zeta
    seen = set()
    for P in parts:
        if seen & set(P):
            raise DomainError("parts must be pairwise disjoint")
        seen |= set(P)
    return PartitionPlan(parts, [coreset_map(mu, P, zeta) for P in parts], zeta)


def _map_within(mu: SetDistribution, P):
    """Exact argmax of mu over the size-k subsets of P; mu's own table when P
    is all of [n], and (None, -inf) when nothing exceeds -inf."""
    nu = mu if P == tuple(range(mu.n)) else mu.restrict(P)
    S, v = brute_force_map(nu, len(P), mu.k)
    return (None if S is None else tuple(P[i] for i in S)), v


def compose_and_report(mu: SetDistribution, plan: PartitionPlan):
    """Composition certificate for a plan, its bound (beta_hat / plan.zeta)^k.

    Replays the local-search core-set argument: starting from the union
    optimum W0, each step removes one element j outside the merged core-set
    C and swaps in the element e of the responsible part's core-set C_i that
    the strong-basis-exchange check of (C_i, W) pairs with j, measuring that
    check's beta along the way and its ratio for j as the step's beta_step.
    The sets after W0 are priced in one completions call.  Raises
    CapacityError when mu of the union optimum is past the float64 range.
    """
    union = as_set(i for P in plan.parts for i in P)
    C = as_set(i for Ci in plan.coresets for i in Ci)
    opt_union_set, opt_union = _map_within(mu, union)
    opt_core_set, opt_core = _map_within(mu, C)
    if opt_core <= 0.0:
        raise InfeasibilityError("merged core-set carries no positive-mass subset")
    if not math.isfinite(opt_union):
        raise CapacityError(f"mu{opt_union_set} = {opt_union} is past the float64 range")
    ratio = opt_union / opt_core
    core_all = set(C)
    chain = [{"set": list(opt_union_set), "value": opt_union}]
    beta_hat = 1.0
    W = opt_union_set
    while not set(W) <= core_all:
        pi, j = next(
            (pi, min(set(W) & set(P) - set(Ci)))
            for pi, (P, Ci) in enumerate(zip(plan.parts, plan.coresets))
            if set(W) & set(P) - set(Ci)
        )
        Ci = plan.coresets[pi]
        beta, witnesses = check_strong_basis_exchange(mu, Ci, W)
        if j not in witnesses:
            raise InfeasibilityError(f"no positive-mass swap for j={j} against core-set {Ci}")
        e, beta_step = witnesses[j]
        beta_hat = max(beta_hat, beta)
        W = as_set(set(W) - {j} | {e})
        chain.append({"set": list(W), "value": None, "part": pi, "swap_out": j,
                      "swap_in": e, "beta_step": beta_step})
    rows = np.array([step["set"] for step in chain[1:]], dtype=np.intp).reshape(-1, mu.k)
    for step, v in zip(chain[1:], mu.completions((), rows).tolist()):
        step["value"] = v
    try:
        bound = (beta_hat / plan.zeta) ** mu.k
    except OverflowError:
        bound = math.inf
    return {
        "parts": [list(P) for P in plan.parts],
        "coresets": [list(Ci) for Ci in plan.coresets],
        "opt_union": opt_union,
        "opt_union_set": list(opt_union_set),
        "opt_coreset": opt_core,
        "opt_coreset_set": list(opt_core_set),
        "ratio": ratio,
        "beta_hat": beta_hat,
        "bound": bound,
        "bound_ok": bool(ratio <= bound * (1.0 + 1e-9)),
        "chain": chain,
    }
