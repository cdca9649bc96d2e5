"""A dense reference chain: what `conductance` and `spectral_gap` read of a
chain, from a row-stochastic P and a density pi given by hand."""

import numpy as np


def symmetrized(P, pi):
    """(B + B^T) / 2 with B = D^{1/2} P D^{-1/2} and D = diag(pi), written out."""
    s = np.sqrt(pi)
    B = (s[:, None] * P) / s[None, :]
    return 0.5 * (B + B.T)


class DenseChain:
    """The chain of a dense P on its states: pi, the flow diag(pi) P and the
    ascending spectrum of sym(P), from the m x m `eigvalsh`."""

    def __init__(self, states, P, pi):
        self.states, self.pi, self._P = states, pi, P
        self.spectrum = np.linalg.eigvalsh(symmetrized(P, pi))

    def flow(self):
        return self.pi[:, None] * self._P
