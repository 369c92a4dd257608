"""Mining pipeline: promising candidates from the signed graph, multipole
extraction with monotonicity pruning, duplicate and maximality filtering.

Also houses the exhaustive brute-force oracle, a seeded random-subset
searcher, and the result readers/writers shared by the command line tools.
"""

from __future__ import annotations

import csv as _csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import bounds, dataset, graph, linalg, measures
from .graph import MiningBudgetExceeded


@dataclass(frozen=True)
class MinerConfig:
    """Thresholds and limits for a mining run.

    max_size defaults to the largest set size that can still reach gain
    delta_threshold (never below 3). rho = 0 keeps only sign patterns whose
    adjusted correlations are all nonpositive; raising rho toward 1 admits
    weaker candidates at growing cost, degenerating to exhaustive search.
    budget caps the work of each search stage (see mine and brute_force).
    """

    sigma_threshold: float = 0.5
    delta_threshold: float = 0.15
    rho: float = 0.0
    max_size: int | None = None
    budget: int = 2_000_000

    def __post_init__(self):
        if not (0.0 <= self.sigma_threshold <= 1.0):
            raise ValueError(f"sigma must be in [0,1], got {self.sigma_threshold}")
        if not (0.0 < self.delta_threshold <= 1.0):
            raise ValueError(f"delta must be in (0,1], got {self.delta_threshold}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must be in [-1,1], got {self.rho}")
        if self.max_size is not None and self.max_size < 3:
            raise ValueError(f"max-size must be >= 3, got {self.max_size}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")

    def resolved_max_size(self) -> int:
        if self.max_size is not None:
            return self.max_size
        return max(3, bounds.max_size_for_gain(self.delta_threshold))


def _gather(M: NDArray[np.float64], sel: NDArray[np.intp]) -> NDArray[np.float64]:
    """Principal submatrices of M, one per row of the (B, s) member-index array sel."""
    return M[sel[:, :, None], sel[:, None, :]]


# Most matrices per eigh_many stack: the solver's scratch grows with the
# stack, and only a brute-force level of 10^5 subsets comes near this. At the
# cap, one values-only solve of 12x12 matrices peaks at 63 MiB under
# tracemalloc, the 36 MiB stack itself not counted (111 MiB with vectors).
_STACK_ROWS = 1 << 15

# A shifted Cholesky factorization proves that a set fails or reaches sigma by
# this margin, far more than its rounding, about 2k(k+1) eps <= 1e-12 at k = 64
# (eps = 2^-53), or Jacobi's error, about 1e-14.
_SCREEN_MARGIN = 1e-9


def _lambda_min(M: NDArray[np.float64], members: list[tuple[int, ...]], cuts: NDArray[np.float64], reach: float | None = None) -> NDArray[np.float64]:
    """Smallest eigenvalue of the principal submatrix of each same-size member tuple.

    A tuple with a finite cut whose submatrix minus cut * I factors (see
    linalg._cholesky_stack) has it above the cut, up to rounding, and gets
    inf. With reach, a tuple left whose submatrix minus reach * I does not
    factor has it below reach, up to 1e-12 and rounding, and gets -inf. Only
    the rest is solved. No kernel is handed an empty stack.
    """
    sel = np.asarray(members, dtype=np.intp)
    lam = np.full(len(members), np.inf)
    for i in range(0, len(members), _STACK_ROWS):
        sub, cut, out = _gather(M, sel[i : i + _STACK_ROWS]), cuts[i : i + _STACK_ROWS], lam[i : i + _STACK_ROWS]
        solve = np.isinf(cut)
        if not solve.all():
            solve[~solve] = linalg._cholesky_stack(sub[~solve], -cut[~solve])[1] >= 0
        if reach is not None and solve.any():
            factors = linalg._cholesky_stack(sub[solve], -reach)[1] < 0
            out[solve], solve[solve] = np.where(factors, np.inf, -np.inf), factors
        if solve.any():
            out[solve] = linalg.eigh_many(sub[solve], vectors=False)[0]
    return lam


def _make_records(M: NDArray[np.float64], members: list[tuple[int, ...]], sigma, gain) -> list[measures.MultipoleRecord]:
    """Records of same-size member tuples with their sigma and gain; self-canceling
    signs and weights come from one stack."""
    form = measures._canonical(_gather(M, np.asarray(members, dtype=np.intp)))
    return [
        measures.MultipoleRecord(
            signed=measures.SignedSet.canonical(t, form.signs[row].tolist()),
            sigma=float(sigma[row]),
            gain=float(gain[row]),
            weights=tuple(float(x) for x in form.weights[row]),
        )
        for row, t in enumerate(members)
    ]


def _lattice(M: NDArray[np.float64], member_tuples, cfg: MinerConfig, descend: bool) -> tuple[list[measures.MultipoleRecord], str | None]:
    """Records of the qualifying sets reached from the sorted member tuples, largest first.

    The subset lattice is walked one size level at a time, top down. A level
    holds the given tuples of its size and the one-member deletions (children)
    of the sigma-survivors one level up; each distinct tuple is scored once,
    in one stack per level (up to _STACK_ROWS). A survivor's gain is its
    children's smallest eigenvalue minus its own. A given tuple, or with
    descend a child of a survivor that misses delta, survives if it reaches
    sigma_threshold. So a set that qualifies (within the size cap) is not
    searched below, however it was reached: its subsets are not maximal.
    Dependence is monotone in set inclusion, so nothing below a failing set
    can survive. Only two levels are held at a time.

    A tuple's smallest eigenvalue is read for its sigma and, if it is a child
    of a survivor within the size cap, for that survivor's gain. A tuple read
    for its sigma alone is not solved when a shifted Cholesky factorization
    proves that it fails sigma by _SCREEN_MARGIN, nor, above the size cap
    (where nothing else is read), when one proves that it reaches sigma by
    the margin (see _lambda_min). Their rounding, about 2k(k+1) eps <= 1e-12
    at k = 64, and Jacobi's error are far below the margin, so every decision
    and every value in a record is that of solving every tuple.

    At most cfg.budget member sets are scored, solved or not: a level
    that would go past it is not, and the records so far (two or more sizes
    above it) come back with a stop message naming that size. Given tuples
    above the eigensolver's cap (linalg.MAX_DIM) and all below them are
    skipped, with a stop message; a complete walk's message is None.
    """
    max_size = cfg.resolved_max_size()
    given: dict[int, dict[tuple[int, ...], None]] = {}
    for t in member_tuples:
        given.setdefault(len(t), {})[t] = None
    over = {s: given.pop(s) for s in sorted(given) if s > linalg.MAX_DIM}
    stop = f"subset lattice skipped {sum(map(len, over.values()))} member set(s) of size {', '.join(map(str, over))}, above the eigensolver's cap of {linalg.MAX_DIM}" if over else None
    records: list[measures.MultipoleRecord] = []
    # sigma-survivors one level up and their smallest eigenvalues
    up: list[tuple[int, ...]] = []
    up_lam = np.empty(0)
    spent = 0
    cut, reach = 1.0 - cfg.sigma_threshold + _SCREEN_MARGIN, 1.0 - cfg.sigma_threshold - _SCREEN_MARGIN
    for s in range(max(given, default=2), 1, -1):
        row = {t: i for i, t in enumerate(given.get(s, ()))}
        n_given = len(row)
        children = np.fromiter(
            (row.setdefault(t[:i] + t[i + 1 :], len(row)) for t in up for i in range(s + 1)),
            dtype=np.intp,
            count=len(up) * (s + 1),
        ).reshape(len(up), s + 1)
        members = list(row)
        if (spent := spent + len(members)) > cfg.budget:
            return records, "; ".join(filter(None, (stop, f"subset lattice stopped at size {s}: scoring it would exceed the budget of {cfg.budget} sets")))
        cuts = np.full(len(members), cut)
        if s < max_size:  # the survivors one level up are within the size cap
            cuts[children] = np.inf
        lam = _lambda_min(M, members, cuts, reach if s > max_size else None)
        qualifies = np.zeros(len(up), dtype=bool)
        if s < max_size:
            gain = lam[children].min(axis=1) - up_lam
            qualifies = gain >= cfg.delta_threshold
            if qualifies.any():
                records += _make_records(M, [t for t, q in zip(up, qualifies) if q], measures._sigma_of(up_lam[qualifies]), gain[qualifies])
        if s < 3:
            break
        live = np.arange(len(members)) < n_given
        if descend:
            live[children[~qualifies]] = True
        sig = measures._sigma_of(lam)
        keep = np.nonzero(live & (sig >= cfg.sigma_threshold))[0]
        up = [members[i] for i in keep]
        up_lam = lam[keep]
    return records, stop


def extract_from_candidate(A, candidate: measures.SignedSet, cfg: MinerConfig) -> list[measures.MultipoleRecord]:
    """Multipoles within one candidate set.

    If the candidate passes both thresholds (and the size cap) it is returned
    alone. Otherwise, if its dependence clears sigma_threshold, its subsets of
    size 3..max_size are searched down the subset lattice, largest first, with
    monotonicity pruning; each subset is scored once, and one that qualifies
    is not searched below. A candidate below sigma_threshold yields nothing.
    This is mine's extraction on one candidate, before the maximality filter.
    Input is resolved and validated as in mine.
    """
    k = len(candidate.members)
    if k < 3:
        raise ValueError(f"candidate needs at least 3 members, got {k}")
    return _finished(*_lattice(dataset._resolve_matrix(A).entries, [candidate.members], cfg, descend=True))


def _drop_contained(items, members_of) -> list:
    """The items, in order, whose member set is not a subset of an earlier kept item's set.

    Equal sets count as contained, so this also drops duplicates. Only kept
    sets sharing the item's rarest member are compared against.
    """
    holders: dict = {}  # member -> member sets of kept items containing it
    out = []
    for item in items:
        key = frozenset(members_of(item))
        rivals = min((holders.get(m, ()) for m in key), key=len, default=())
        if any(key <= other for other in rivals):
            continue
        out.append(item)
        for m in key:
            holders.setdefault(m, []).append(key)
    return out


def remove_non_maximal(records) -> list[measures.MultipoleRecord]:
    """Keep each member set once and drop sets contained in an accepted set.

    Processes records largest-first (ties by canonical order); an accepted
    set blocks all of its subsets from later acceptance.
    """
    ordered = sorted(records, key=lambda r: (-r.size, r.signed))
    return _drop_contained(ordered, lambda r: r.members)


def _final_sort(records) -> list[measures.MultipoleRecord]:
    return sorted(records, key=lambda r: (-r.gain, -r.sigma, r.signed))


def _finished(out, *stops) -> list[measures.MultipoleRecord]:
    """out, or MiningBudgetExceeded carrying it as partial if a stage gave a stop message."""
    if any(stops):
        raise MiningBudgetExceeded("; ".join(stop for stop in stops if stop), out)
    return out


def _dedup_candidates(g: graph.PromisingGraph, cliques) -> list[tuple[int, ...]]:
    """Sorted member tuples of the cliques, each distinct one once, in first-seen order.

    Cliques with equal members but different signs extract identically (both
    thresholds are sign-invariant), so the signs are dropped.
    """
    n = g.n_variables
    return list(dict.fromkeys(tuple(sorted(v % n for v in c)) for c in cliques))


def mine(data, cfg: MinerConfig) -> list[measures.MultipoleRecord]:
    """All maximal multipoles of a standardized dataset (or correlation matrix;
    a raw array is validated as a CorrelationMatrix first).

    Candidates are the member sets of the maximal cliques of the dual-copy
    graph at cfg.rho (one clique per mirror pair); each candidate is searched
    for threshold-satisfying subsets; duplicates and non-maximal sets are
    removed; output is sorted by descending gain, then descending dependence,
    then members. Deterministic for fixed input and config.
    After a clique budget stop the lattice still searches the candidates
    found; any stop raises MiningBudgetExceeded with the records found.
    """
    A = dataset._resolve_matrix(data)
    g = graph.build_graph(A, cfg.rho)
    try:
        cliques, clique_stop = graph.maximal_cliques(g, min_size=3, budget=cfg.budget), None
    except MiningBudgetExceeded as e:
        cliques, clique_stop = e.partial, str(e)
    records, lattice_stop = _lattice(A.entries, _dedup_candidates(g, cliques), cfg, descend=True)
    return _finished(_final_sort(remove_non_maximal(records)), clique_stop, lattice_stop)


def brute_force(data, cfg: MinerConfig) -> list[measures.MultipoleRecord]:
    """Evaluate every subset of sizes 3..max_size; the completeness oracle.

    No pruning and no graph: results are exactly the maximal threshold-
    satisfying sets. Every subset enters the lattice at its size, so each is
    scored once and also serves as a deletion of the sets one size up.
    An instance with more subsets of sizes 2..max_size (the most its lattice
    solves) than cfg.budget is refused at once, with no records. Input is
    resolved and validated as in mine.
    """
    M = dataset._resolve_matrix(data).entries
    n = M.shape[0]
    smax = min(n, cfg.resolved_max_size())
    total = sum(math.comb(n, s) for s in range(2, smax + 1))
    if total > cfg.budget:
        return _finished([], f"brute force refused: {total} subsets of sizes 2 to {smax} exceed the budget of {cfg.budget}")
    subsets = (c for s in range(3, smax + 1) for c in itertools.combinations(range(n), s))
    records, stop = _lattice(M, subsets, cfg, descend=False)
    return _finished(_final_sort(remove_non_maximal(records)), stop)


def random_search(A, cfg: MinerConfig, trials: int, seed: int = 0) -> list[measures.MultipoleRecord]:
    """Sample random subsets with the given seed, keep the threshold-satisfying
    ones, dedup.

    Only drawn sets are reported, never their subsets. No maximality
    filtering: the output approximates the full solution family, for use as a
    pseudo-complete reference on large instances (empty on fewer than 3
    variables). Input is resolved and validated as in mine.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    M = dataset._resolve_matrix(A).entries
    n = M.shape[0]
    smax = min(n, cfg.resolved_max_size())
    if smax < 3:
        return []
    rng = np.random.default_rng(seed)
    draws: dict[tuple[int, ...], None] = {}  # distinct, in first-seen order
    # past the budget the lattice stops anyway; at every subset a draw adds nothing
    limit = min(cfg.budget + 1, sum(math.comb(n, s) for s in range(3, smax + 1)))
    for _ in range(trials):
        if len(draws) >= limit:
            break
        size = int(rng.integers(3, smax + 1))
        draws[tuple(int(x) for x in np.sort(rng.choice(n, size=size, replace=False)))] = None
    records, stop = _lattice(M, draws, cfg, descend=False)
    return _finished(_final_sort(records), stop)


def records_to_dicts(records, names=None) -> list[dict]:
    """JSON-ready form: member names, signs, measures, weights, size."""
    out = []
    for rec in records:
        members = list(rec.members) if names is None else [names[i] for i in rec.members]
        out.append(
            {
                "members": members,
                "signs": list(rec.signed.signs),
                "linear_dependence": rec.sigma,
                "linear_gain": rec.gain,
                "weights": list(rec.weights),
                "size": rec.size,
            }
        )
    return out


def write_dicts_json(dicts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dicts, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _joined(fmt):
    return lambda values: ";".join(fmt(v) for v in values)


# CSV column -> cell format of the entry's value under that key
_CSV_COLUMNS = {
    "members": _joined(str),
    "signs": _joined(str),
    "size": lambda v: v,
    "linear_dependence": repr,
    "linear_gain": repr,
    "weights": _joined(repr),
}


def write_dicts_csv(dicts, path) -> None:
    """One row per entry; a key the entry lacks (a members-only merge input) is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_CSV_COLUMNS))
        for d in dicts:
            writer.writerow([fmt(d[key]) if key in d else "" for key, fmt in _CSV_COLUMNS.items()])


def write_records_json(records, names, path) -> None:
    write_dicts_json(records_to_dicts(records, names), path)


def write_records_csv(records, names, path) -> None:
    write_dicts_csv(records_to_dicts(records, names), path)


def read_records_json(path) -> list[dict]:
    """Entries of a result file; each names 3 or more distinct members, and the
    keys merge sorts and writes, where present, hold finite numbers or lists."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of multipole objects")
    for i, d in enumerate(data):
        members = d.get("members") if isinstance(d, dict) else None
        if not (
            isinstance(members, list)
            and len(members) >= 3
            and all(isinstance(m, str) for m in members)
            and len(set(members)) == len(members)
        ):
            raise ValueError(f"{path}: entry {i} is not a multipole object with 3 or more distinct member names")
        for key in ("linear_gain", "linear_dependence"):
            if key in d and (isinstance(d[key], bool) or not isinstance(d[key], (int, float))):
                raise ValueError(f"{path}: entry {i} has a non-numeric {key!r}")
            if isinstance(d.get(key), float) and not math.isfinite(d[key]):  # json reads NaN and Infinity
                raise ValueError(f"{path}: entry {i} has a non-finite {key!r}")
        for key in ("signs", "weights"):
            if key in d and not isinstance(d[key], list):
                raise ValueError(f"{path}: entry {i} has a {key!r} that is not a list")
    return data


def merge_by_names(dict_lists) -> list[dict]:
    """Combine result files: dedup by member-name set, drop non-maximal sets.

    Same acceptance order as remove_non_maximal, operating on names alone so
    no correlation matrix is needed.
    """
    rows = [d for lst in dict_lists for d in lst]
    ordered = sorted(rows, key=lambda d: (-len(d["members"]), tuple(d["members"])))
    out = _drop_contained(ordered, lambda d: d["members"])
    out.sort(key=lambda d: (-d.get("linear_gain", 0.0), -d.get("linear_dependence", 0.0), tuple(d["members"])))
    return out
