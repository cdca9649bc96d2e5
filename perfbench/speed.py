"""Host-speed references: a fixed task timed around and during every operation.

The shared host's CPUs change speed by up to 2x within seconds, so raw wall
times of one commit differ from run to run by more than any change worth
measuring.  The benchmark therefore times a fixed reference task, made of
the same kind of work as the operation's hot path, right before a timed
call, every `interval_s` during it (from a timer signal, on the same CPU)
and right after it.  It reports the call's time scaled to the reference's
nominal speed:

    normalized seconds = call seconds * nominal_s / mean reference seconds

The reference timings made during a call are left out of its call seconds
(see `clock`).  The references are benchmark code that no change to ndppmap
touches, so a change to the program moves the normalized time exactly as it
moves the wall time at a steady host speed.  Wall times stay in the records.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import signal
import statistics
import time
from typing import Callable

import numpy as np

REPEATS = 3  # a reference timing is the fastest of this many

_N = 10
_M = np.random.default_rng(20210210).standard_normal((_N, _N))
_SUBSETS = [np.array(S) for S in itertools.combinations(range(_N), 4)][:40]
_SHIFTS = np.exp(2j * np.pi * np.arange(4) / 4)
_EYE = np.eye(_N)


def _determinants():
    """Python-loop work: small determinants, as in pricing and marginals."""
    acc = 0.0
    for idx in _SUBSETS:
        acc += np.linalg.det(_M[np.ix_(idx, idx)])
    for z in _SHIFTS:
        acc += abs(np.linalg.det(_M + z * _EYE))
    return acc


_BITS = 20
_MASKS = np.arange(1, 1 << 12, dtype=np.int64)
_PI = np.random.default_rng(20210211).random(_BITS)
_FLOW = np.random.default_rng(20210212).random((_BITS, _BITS))


def _arrays():
    """Vectorized work over arrays of cut masks, as in the exact conductance."""
    member = ((_MASKS[:, None] >> np.arange(_BITS)) & 1).astype(float)
    pi_S = member @ _PI
    internal = np.einsum("ij,jk,ik->i", member, _FLOW, member)
    return float((internal / (1.0 + pi_S)).min())


@dataclasses.dataclass(frozen=True)
class Reference:
    task: Callable[[], float]
    # The task's time on the 2-vCPU Xeon that set the baseline, in a typical
    # phase; normalized seconds are seconds at that speed.
    nominal_s: float
    interval_s: float

    def time_s(self):
        """Fastest of REPEATS timings of the task, in seconds."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.task()
            best = min(best, time.perf_counter() - t0)
        return best


# A workload names the reference whose work is most like its hot path: how
# much a slow spell slows code depends on the kind of code.  On the baseline
# host, map-search time moved with DETERMINANTS to the power 0.97, while walk
# time (70% exact conductance) moved with it to the power 0.67 only, and with
# ARRAYS-like tasks to the power 0.9 to 1.0.
DETERMINANTS = Reference(_determinants, nominal_s=6.5e-4, interval_s=0.05)
ARRAYS = Reference(_arrays, nominal_s=5.0e-3, interval_s=0.2)

# Seconds spent in reference timings inside timed calls, and the reference
# and timings of the current call.
_overhead_s = 0.0
_current = DETERMINANTS
_samples: list[float] = []


def normalize(wall_s, refs, ref=DETERMINANTS):
    """Seconds at the reference's nominal speed, given its timings."""
    return wall_s * ref.nominal_s / statistics.fmean(refs)


def clock():
    """perf_counter without the reference timings made inside timed calls."""
    return time.perf_counter() - _overhead_s


def _sample(signum, frame):
    global _overhead_s
    t0 = time.perf_counter()
    _samples.append(_current.time_s())
    _overhead_s += time.perf_counter() - t0


@contextlib.contextmanager
def timed(ref=DETERMINANTS):
    """Time the body; on exit the yielded dict gets wall_s, ref_s (the mean
    reference timing), ref_samples and norm_s."""
    global _current
    out = {}
    _current = ref
    _samples[:] = [ref.time_s()]
    previous = signal.signal(signal.SIGALRM, _sample)
    t0 = clock()
    signal.setitimer(signal.ITIMER_REAL, ref.interval_s, ref.interval_s)
    try:
        yield out
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = clock() - t0
        signal.signal(signal.SIGALRM, previous)
        _samples.append(ref.time_s())
        out.update(wall_s=wall, ref_s=statistics.fmean(_samples), ref_samples=len(_samples),
                   norm_s=normalize(wall, _samples, ref))
