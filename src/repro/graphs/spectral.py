"""Spectral machinery: transition matrices, spectral gap, mixing time.

Section 4.1 of the paper works with the row-stochastic transition matrix

    M_ij = A_ij / deg(i)        (i.e. M = D^{-1} A),

whose report-position dynamics are ``P(t+1) = M^T P(t)``, and with the
*normalized adjacency* ``N = D^{-1/2} A D^{-1/2}``, which is symmetric
and similar to ``M`` (so they share eigenvalues).  With eigenvalues
``1 = a_1 >= a_2 >= ... >= a_n > -1`` the *spectral gap* is

    alpha = min(1 - a_2, 1 - |a_n|),

and the mixing time is ``t ~= alpha^{-1} log n`` (Equation 5):
after that many steps ``TV(P(t), pi) <= sqrt(n) (1-alpha)^t <~ 1/sqrt(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import GraphError
from repro.graphs.connectivity import require_ergodic
from repro.graphs.graph import Graph

#: Below this node count we use dense eigendecomposition (exact, simple);
#: above it, sparse Lanczos for the extreme eigenvalues only.
_DENSE_EIGEN_LIMIT = 1500


def transition_matrix(graph: Graph) -> sp.csr_matrix:
    """Row-stochastic random-walk matrix ``M = D^{-1} A``.

    Row ``i`` holds the probability of a report at node ``i`` moving to
    each neighbor: uniform over ``deg(i)`` neighbors.

    Raises
    ------
    GraphError
        If any node is isolated (division by zero degree).
    """
    degrees = graph.degrees().astype(np.float64)
    if np.any(degrees == 0):
        raise GraphError(
            "graph has isolated nodes; the transition matrix is undefined"
        )
    adjacency = graph.adjacency_matrix()
    inverse_degree = sp.diags(1.0 / degrees)
    return (inverse_degree @ adjacency).tocsr()


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """Symmetric normalized adjacency ``N = D^{-1/2} A D^{-1/2}``."""
    degrees = graph.degrees().astype(np.float64)
    if np.any(degrees == 0):
        raise GraphError(
            "graph has isolated nodes; the normalized adjacency is undefined"
        )
    adjacency = graph.adjacency_matrix()
    half = sp.diags(1.0 / np.sqrt(degrees))
    return (half @ adjacency @ half).tocsr()


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Stationary distribution ``pi = k / 2m`` (Section 4.1).

    For an ergodic graph the walk converges to ``pi`` regardless of the
    initial distribution; for a k-regular graph ``pi`` is uniform.
    """
    degrees = graph.degrees().astype(np.float64)
    total = degrees.sum()
    if total == 0:
        raise GraphError("graph has no edges; stationary distribution undefined")
    return degrees / total


def normalized_adjacency_eigenvalues(
    graph: Graph, *, num_extreme: int = 2
) -> np.ndarray:
    """Extreme eigenvalues of the normalized adjacency, descending.

    For small graphs the full spectrum is returned (dense path).  For
    large graphs only the ``num_extreme`` largest-magnitude eigenvalues
    from each end are computed with Lanczos iteration — enough to derive
    the spectral gap.
    """
    n = graph.num_nodes
    matrix = normalized_adjacency(graph)
    if n <= _DENSE_EIGEN_LIMIT:
        eigenvalues = np.linalg.eigvalsh(matrix.toarray())
        return eigenvalues[::-1]
    k = min(max(num_extreme, 2), n - 2)
    # ARPACK otherwise draws its start vector from a seed it carries
    # across calls, so two computations of one graph's spectrum in one
    # process would differ in the last digits.  A start vector seeded by
    # the graph size makes every call bit-reproducible.
    v0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    largest = spla.eigsh(
        matrix, k=k, which="LA", v0=v0, return_eigenvectors=False
    )
    smallest = spla.eigsh(
        matrix, k=k, which="SA", v0=v0, return_eigenvectors=False
    )
    combined = np.unique(np.concatenate([largest, smallest]))
    return combined[::-1]


def spectral_gap(graph: Graph, *, validate: bool = True) -> float:
    """Spectral gap ``alpha = min(1 - a_2, 1 - |a_n|)``.

    ``alpha in (0, 1]`` for ergodic graphs; 0 for disconnected or
    bipartite graphs (which is why ``validate`` rejects them upfront with
    a clearer error).
    """
    if validate:
        require_ergodic(graph)
    eigenvalues = normalized_adjacency_eigenvalues(graph)
    if eigenvalues.size < 2:
        return 1.0
    second_largest = float(eigenvalues[1])
    smallest = float(eigenvalues[-1])
    gap = min(1.0 - second_largest, 1.0 - abs(smallest))
    # Clip tiny negative values caused by floating-point noise on
    # graphs that are exactly bipartite up to rounding.
    return max(gap, 0.0)


def mixing_time(
    graph: Graph,
    *,
    gap: Optional[float] = None,
    validate: bool = True,
) -> int:
    """Mixing time ``t = round(alpha^{-1} log n)`` (Equation 5).

    The paper runs every protocol for exactly this many rounds in the
    numerical analyses (Section 5.6).  ``gap`` short-circuits the
    eigen-computation when the caller already knows ``alpha``.
    """
    alpha = spectral_gap(graph, validate=validate) if gap is None else float(gap)
    if alpha <= 0.0:
        raise GraphError("spectral gap is zero; the walk never mixes")
    n = max(graph.num_nodes, 2)
    return max(1, int(round(np.log(n) / alpha)))


@dataclass(frozen=True)
class SpectralSummary:
    """Bundle of the spectral quantities the privacy bounds consume."""

    num_nodes: int
    num_edges: int
    spectral_gap: float
    mixing_time: int
    stationary_collision: float
    """``sum_i pi_i^2`` — the stationary limit of ``sum_i P_i(t)^2``."""
    irregularity_gamma: float
    """``Gamma_G = n * sum_i pi_i^2`` (Table 2); 1 for regular graphs."""

    def sum_squared_bound(self, steps: int) -> float:
        """Equation 7 upper bound: ``sum P_i(t)^2 <= sum pi_i^2 + (1-alpha)^{2t}``."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        # A sum of squared probabilities never exceeds 1 (it is 1 exactly
        # when the distribution is a point mass at t=0).
        return min(
            1.0,
            self.stationary_collision + (1.0 - self.spectral_gap) ** (2 * steps),
        )


def spectral_summary(graph: Graph) -> SpectralSummary:
    """Compute every spectral quantity the amplification theorems need."""
    require_ergodic(graph)
    pi = stationary_distribution(graph)
    collision = float(np.dot(pi, pi))
    alpha = spectral_gap(graph, validate=False)
    return SpectralSummary(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        spectral_gap=alpha,
        mixing_time=mixing_time(graph, gap=alpha, validate=False),
        stationary_collision=collision,
        irregularity_gamma=graph.num_nodes * collision,
    )
