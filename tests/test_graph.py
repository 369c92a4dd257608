"""Tests for the dual-copy promising graph and clique enumeration."""

import itertools

import numpy as np
import pytest

from multipoles import measures
from multipoles.graph import (
    MiningBudgetExceeded,
    PromisingGraph,
    build_graph,
    clique_to_signed_set,
    maximal_cliques,
)


def triple(r12, r13, r23):
    return np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])


def equicorrelated(k, r):
    a = np.full((k, k), r)
    np.fill_diagonal(a, 1.0)
    return a


def random_correlation(rng, k):
    g = rng.normal(size=(k, k + 3))
    cov = g @ g.T
    d = np.sqrt(np.diag(cov))
    a = cov / np.outer(d, d)
    np.fill_diagonal(a, 1.0)  # a correlation matrix's diagonal is exactly 1
    return a


def graph_from_edges(n, edges):
    """Graph with the given structure in copy 1, mirrored into copy 2."""
    adj = [set() for _ in range(2 * n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
        adj[n + i].add(n + j)
        adj[n + j].add(n + i)
    return PromisingGraph(
        n_variables=n, adjacency=tuple(tuple(sorted(a)) for a in adj)
    )


def mirror(n, clique):
    """The clique with both copies swapped."""
    return tuple(sorted((v + n) % (2 * n) for v in clique))


def lowest_in_copy_one(n, cliques):
    """The cliques whose lowest variable is a copy-1 node: one per mirror pair."""
    return [c for c in cliques if min(c, key=lambda v: v % n) < n]


def brute_maximal_cliques(n_nodes, adj):
    """Reference enumeration over all vertex subsets."""
    cliques = []
    for r in range(1, n_nodes + 1):
        for cand in itertools.combinations(range(n_nodes), r):
            if all(j in adj[i] for i, j in itertools.combinations(cand, 2)):
                cliques.append(set(cand))
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(maximal)


# ---------------------------------------------------------------- build


def test_build_graph_edge_rules():
    # correlations r01=-0.5, r02=+0.4, r12=+0.3
    g = build_graph(triple(-0.5, 0.4, 0.3), rho=0.0)
    assert len(g.adjacency) == 6
    n = 3
    # within copy 1: only the negative pair
    assert 1 in g.adjacency[0]
    assert 2 not in g.adjacency[0]
    assert 2 not in g.adjacency[1]
    # copies are isomorphic
    assert n + 1 in g.adjacency[n + 0]
    assert n + 2 not in g.adjacency[n + 0]
    # cross edges where corr >= 0, never between copies of one variable
    assert n + 2 in g.adjacency[0]
    assert n + 2 in g.adjacency[1]
    assert n + 1 not in g.adjacency[0]
    assert n + 0 not in g.adjacency[0]
    # the promised 3-clique {v1_0, v1_1, v2_2}
    clique = {0, 1, n + 2}
    assert all(
        j in g.adjacency[i] for i, j in itertools.combinations(sorted(clique), 2)
    )


def test_build_graph_all_positive():
    g = build_graph(equicorrelated(4, 0.5), rho=0.0)
    cliques = maximal_cliques(g)
    assert max(len(c) for c in cliques) <= 2


def test_build_graph_all_negative():
    g = build_graph(equicorrelated(4, -0.1), rho=0.0)
    # each copy is complete, no cross edges
    for i, j in itertools.combinations(range(4), 2):
        assert j in g.adjacency[i]
        assert 4 + j in g.adjacency[4 + i]
        assert 4 + j not in g.adjacency[i]
    assert maximal_cliques(g) == [(0, 1, 2, 3)]


def test_build_graph_rejects_bad_rho():
    with pytest.raises(ValueError):
        build_graph(np.eye(3), rho=1.5)


def test_adjacency_is_symmetric_and_sorted():
    rng = np.random.default_rng(50)
    g = build_graph(random_correlation(rng, 6), rho=0.1)
    for i, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(nbrs)
        for j in nbrs:
            assert i in g.adjacency[j]
            assert i != j


# ---------------------------------------------------------------- cliques


def test_triangle():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert maximal_cliques(g) == [(0, 1, 2)]


def test_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert maximal_cliques(g) == [(0, 1), (1, 2)]


def test_five_cycle():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cliques = maximal_cliques(g)
    assert len(cliques) == 5
    assert all(len(c) == 2 for c in cliques)


def test_min_size_filter():
    g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert maximal_cliques(g, min_size=3) == [(0, 1, 2)]


def test_isolated_nodes_are_their_own_cliques():
    g = graph_from_edges(3, [(0, 1)])
    assert maximal_cliques(g) == [(0, 1), (2,)]


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(51)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        edges = [
            (i, j)
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.45
        ]
        g = graph_from_edges(n, edges)
        adj = [set(nbrs) for nbrs in g.adjacency]
        assert maximal_cliques(g) == lowest_in_copy_one(n, brute_maximal_cliques(2 * n, adj))
    # signed graphs, whose cross-copy edges make cliques span both copies
    for _ in range(10):
        n = int(rng.integers(3, 7))
        g = build_graph(random_correlation(rng, n), rho=float(rng.uniform(-0.1, 0.3)))
        adj = [set(nbrs) for nbrs in g.adjacency]
        assert maximal_cliques(g) == lowest_in_copy_one(n, brute_maximal_cliques(2 * n, adj))


def test_budget_exceeded_carries_partial_results():
    g = graph_from_edges(6, list(itertools.combinations(range(6), 2))[:10])
    with pytest.raises(MiningBudgetExceeded) as exc:
        maximal_cliques(g, budget=2)
    assert "budget of 2 cliques" in str(exc.value)
    assert len(exc.value.partial) == 2
    full = maximal_cliques(g)
    for c in exc.value.partial:
        assert c in full


# ---------------------------------------------------------------- signed sets


def test_clique_to_signed_set_mapping():
    g = build_graph(triple(-0.5, 0.4, 0.3), rho=0.0)
    s = clique_to_signed_set(g, [0, 1, 5])
    assert s.members == (0, 1, 2)
    assert s.signs == (1, 1, -1)


def test_mirror_cliques_map_identically():
    g = build_graph(triple(-0.5, 0.4, 0.3), rho=0.0)
    assert clique_to_signed_set(g, [0, 1, 5]) == clique_to_signed_set(g, [3, 4, 2])


def test_all_copy_one_clique():
    g = build_graph(equicorrelated(4, -0.1), rho=0.0)
    s = clique_to_signed_set(g, [0, 3])
    assert s.signs == (1, 1)


def test_rejects_clique_with_both_copies():
    g = build_graph(equicorrelated(4, -0.1), rho=0.0)
    with pytest.raises(ValueError):
        clique_to_signed_set(g, [0, 4])


# ---------------------------------------------------------------- properties


def test_cliques_are_sound():
    # every graph clique of size >= 3 has all sign-adjusted correlations <= rho
    rng = np.random.default_rng(52)
    for rho in (0.0, 0.1, -0.05):
        for _ in range(20):
            a = random_correlation(rng, 7)
            g = build_graph(a, rho=rho)
            for c in maximal_cliques(g, min_size=3):
                s = clique_to_signed_set(g, c)
                assert measures.is_negative_clique(a, s, rho + 1e-12)


def test_graph_is_complete_for_witnessed_subsets():
    # any subset with a negative-equivalent witness appears as a clique
    rng = np.random.default_rng(53)
    for _ in range(25):
        a = random_correlation(rng, 8)
        rho = 0.05
        g = build_graph(a, rho=rho)
        for size in (3, 4):
            for sub in itertools.combinations(range(8), size):
                w = measures.negative_equivalent_witness(a, list(sub), rho)
                if w is None:
                    continue
                nodes = [
                    m if sg > 0 else m + 8 for m, sg in zip(w.members, w.signs)
                ]
                assert all(
                    j in g.adjacency[i]
                    for i, j in itertools.combinations(sorted(nodes), 2)
                )


def test_mirror_pairing_halves_clique_count():
    rng = np.random.default_rng(54)
    for _ in range(10):
        a = random_correlation(rng, 6)
        g = build_graph(a, rho=0.0)
        cliques = [c for c in maximal_cliques(g) if len(c) >= 3]
        listed = set(cliques)
        assert not any(mirror(6, c) in listed for c in cliques)
        distinct = {clique_to_signed_set(g, c) for c in cliques}
        assert len(cliques) == len(distinct)
