"""Dual-copy signed correlation graph and maximal-clique enumeration.

Each variable i appears as two nodes: i in copy 1 (sign +1) and i + N in
copy 2 (sign -1). Within-copy edges require corr <= rho, cross-copy edges
require corr >= -rho, and a variable is never connected to its own mirror.
A clique then names a set of variables together with a sign assignment
under which every adjusted pairwise correlation is at most rho, and the
mirror image of a clique (both copies swapped) names the same assignment.
Enumeration therefore reports one clique of each mirror pair: the one whose
lowest variable is in copy 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataset, measures


class MiningBudgetExceeded(RuntimeError):
    """A search stage hit the work budget; partial holds what that stage had produced."""

    def __init__(self, message: str, partial: list):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class PromisingGraph:
    """Immutable undirected graph on 2N nodes; node v % N is the variable."""

    n_variables: int
    adjacency: tuple[tuple[int, ...], ...]


def build_graph(A, rho: float) -> PromisingGraph:
    """Construct the dual-copy graph for a correlation matrix at threshold rho.

    A is a dataset, a CorrelationMatrix or a raw matrix, resolved as in mine:
    a raw matrix with NaN, asymmetry or a non-unit diagonal raises ValueError.
    """
    if not (-1.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    M = dataset._resolve_matrix(A).entries
    n = M.shape[0]
    offdiag = ~np.eye(n, dtype=bool)
    within = (M <= rho) & offdiag
    cross = (M >= -rho) & offdiag
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[:n, :n] = within
    adj[n:, n:] = within
    adj[:n, n:] = cross
    adj[n:, :n] = cross.T
    adjacency = tuple(tuple(int(b) for b in np.nonzero(adj[a])[0]) for a in range(2 * n))
    return PromisingGraph(n_variables=n, adjacency=adjacency)


def maximal_cliques(g: PromisingGraph, min_size: int = 1, budget: float = float("inf")) -> list[tuple[int, ...]]:
    """Maximal cliques of at least min_size nodes, one per mirror pair, canonically sorted.

    The graph is assumed mirror-symmetric, as build_graph makes it, so the
    mirror of a maximal clique is one too. Of the two, exactly one has its
    lowest variable in copy 1, and only that one is reported. Bron-Kerbosch
    with pivoting is rooted at each copy-1 node v in variable order, with
    the neighbours of higher variable as candidates and those of lower
    variable as excluded. Finding more than budget cliques raises
    MiningBudgetExceeded carrying the first budget of them, sorted.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    n = g.n_variables
    neighbors = [frozenset(a) for a in g.adjacency]
    found: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]):
        if not p and not x:
            if len(r) >= min_size:
                found.append(tuple(sorted(r)))
                if len(found) > budget:
                    raise MiningBudgetExceeded(f"clique stage stopped at the budget of {budget} cliques", sorted(found[:budget]))
            return
        pivot = max(p | x, key=lambda v: (len(p & neighbors[v]), -v))
        for v in sorted(p - neighbors[pivot]):
            r.append(v)
            expand(r, p & neighbors[v], x & neighbors[v])
            r.pop()
            p.remove(v)
            x.add(v)

    for v in range(n):
        later = {u for u in g.adjacency[v] if u % n > v}
        earlier = {u for u in g.adjacency[v] if u % n < v}
        expand([v], later, earlier)
    found.sort()
    return found


def clique_to_signed_set(g: PromisingGraph, clique) -> measures.SignedSet:
    """Map a clique to its canonical signed variable set.

    Copy-1 nodes carry sign +1 and copy-2 nodes -1; a clique and its mirror
    map to the same SignedSet, so canonical equality deduplicates them.
    """
    n = g.n_variables
    members = []
    signs = []
    seen = set()
    for node in clique:
        var = node % n
        if var in seen:
            raise ValueError(f"clique contains both copies of variable {var}")
        seen.add(var)
        members.append(var)
        signs.append(1 if node < n else -1)
    return measures.SignedSet.canonical(members, signs)
