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
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import bounds, dataset, graph, linalg, measures


@dataclass(frozen=True)
class MinerConfig:
    """Thresholds and limits for a mining run.

    max_size defaults to the largest set size that can still reach gain
    delta_threshold (never below 3). rho = 0 keeps only sign patterns whose
    adjusted correlations are all nonpositive; raising rho toward 1 admits
    weaker candidates at growing cost, degenerating to exhaustive search.
    """

    sigma_threshold: float = 0.5
    delta_threshold: float = 0.15
    rho: float = 0.0
    max_size: int | None = None
    seed: int = 0
    clique_budget: int = 10_000_000

    def __post_init__(self):
        if not (0.0 <= self.sigma_threshold <= 1.0):
            raise ValueError(f"sigma must be in [0,1], got {self.sigma_threshold}")
        if not (0.0 < self.delta_threshold <= 1.0):
            raise ValueError(f"delta must be in (0,1], got {self.delta_threshold}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must be in [-1,1], got {self.rho}")
        if self.max_size is not None and self.max_size < 3:
            raise ValueError(f"max-size must be >= 3, got {self.max_size}")
        if self.clique_budget < 1:
            raise ValueError("clique_budget must be positive")

    def resolved_max_size(self) -> int:
        if self.max_size is not None:
            return self.max_size
        return max(3, bounds.max_size_for_gain(self.delta_threshold))


class MiningBudgetExceeded(RuntimeError):
    """A search budget was hit; carries whatever results the processed part produced."""

    def __init__(self, message: str, records: list, candidates_processed: int = 0):
        super().__init__(message)
        self.records = records
        self.candidates_processed = candidates_processed


def _resolve_matrix(data) -> NDArray[np.float64]:
    """Entries of a validated correlation matrix, the one entry point for mining input.

    A dataset is correlated (it must be standardized), a CorrelationMatrix is
    used as it is, and anything else is validated as a CorrelationMatrix, so a
    raw matrix with NaN, asymmetry or a non-unit diagonal raises ValueError.
    """
    if isinstance(data, dataset.TimeSeriesDataset):
        data = dataset.correlation_matrix(data)
    elif not isinstance(data, dataset.CorrelationMatrix):
        data = dataset.CorrelationMatrix(entries=data)
    return data.entries


def _gather(M: NDArray[np.float64], sel: NDArray[np.intp]) -> NDArray[np.float64]:
    """Principal submatrices of M, one per row of the (B, s) member-index array sel."""
    return M[sel[:, :, None], sel[:, None, :]]


def _evaluate(M: NDArray[np.float64], sel: NDArray[np.intp], cfg: MinerConfig):
    """Score the member sets in the rows of sel: the subset-evaluation kernel.

    Returns (lam, sigma, ok, mus, gain). lam and sigma cover every row; ok
    holds the rows whose sigma clears cfg.sigma_threshold, and mus (deletion
    eigenvalues) and gain are computed for those rows only, aligned with ok.
    """
    mats = _gather(M, sel)
    lam = linalg.eigh_many(mats, vectors=False)[0][:, 0]
    sigma = measures._sigma_of(lam)
    ok = np.nonzero(sigma >= cfg.sigma_threshold)[0]
    if ok.size == 0:
        return lam, sigma, ok, None, None
    _, mus, gain = measures._gain_parts(mats[ok], lam[ok])
    return lam, sigma, ok, mus, gain


def _size_groups(tuples) -> list[list[int]]:
    """Indices into tuples, one list per distinct length (ascending), input order within each."""
    groups: dict[int, list[int]] = {}
    for t, tup in enumerate(tuples):
        groups.setdefault(len(tup), []).append(t)
    return [groups[s] for s in sorted(groups)]


def _make_records(M: NDArray[np.float64], found) -> list[measures.MultipoleRecord]:
    """Records of (member tuple, sigma, gain) triples, with self-canceling signs
    and weights, batched per size."""
    out: list = [None] * len(found)
    for grp in _size_groups([f[0] for f in found]):
        sel = np.asarray([found[t][0] for t in grp], dtype=np.intp)
        values, vecs = linalg.eigh_many(_gather(M, sel), vectors=True)
        near = (values[:, 1] - values[:, 0]) < measures.DEGENERATE_GAP
        w = vecs[:, :, 0]
        signs = np.where(w < -measures.FLIP_EPS, -1, 1)
        weights = w * signs
        for row, t in enumerate(grp):
            members, sigma, gain = found[t]
            out[t] = measures.MultipoleRecord(
                signed=measures.SignedSet.canonical(members, signs[row].tolist()),
                sigma=float(sigma),
                gain=float(gain),
                weights=tuple(float(x) for x in weights[row]),
                maximal=False,
                near_degenerate=bool(near[row]),
            )
    return out


def _bits(m: int):
    """Positions of the set bits of m, ascending."""
    b = 0
    while m:
        if m & 1:
            yield b
        m >>= 1
        b += 1


def _descend(M: NDArray[np.float64], idx: tuple[int, ...], lam: float, mus, cfg: MinerConfig):
    """(member tuple, sigma, gain) of every qualifying subset of idx of size
    3..max_size, largest first.

    idx's own smallest eigenvalue lam and deletion minima mus seed the memo.
    Subsets are visited one size level at a time: a subset is evaluated only
    while every superset one size up still reaches sigma_threshold
    (dependence is monotone in set inclusion), and each subset's smallest
    eigenvalue is solved once, also serving as a deletion eigenvalue of the
    level above.
    """
    k = len(idx)
    smax = min(k, cfg.resolved_max_size())
    full_mask = (1 << k) - 1
    lam_memo: dict[int, float] = {full_mask: lam}
    for b in range(k):
        lam_memo[full_mask ^ (1 << b)] = float(mus[b])
    alive_prev = [full_mask]
    pending: dict[int, list[int]] = {k: [full_mask] if k <= smax else []}
    results: list[tuple[int, float, float]] = []

    for s in range(k - 1, 1, -1):
        cnt: Counter[int] = Counter()
        for m in alive_prev:
            for b in _bits(m):
                cnt[m ^ (1 << b)] += 1
        eligible = sorted(m for m, c in cnt.items() if c == k - s)
        needed = {m ^ (1 << b) for m in pending.get(s + 1, []) for b in _bits(m)}
        eval_masks = sorted((set(eligible) | needed) - lam_memo.keys())
        if eval_masks:
            sel = np.asarray([[idx[b] for b in _bits(m)] for m in eval_masks], dtype=np.intp)
            lam_s = linalg.eigh_many(_gather(M, sel), vectors=False)[0][:, 0]
            lam_memo.update(zip(eval_masks, lam_s.tolist()))
        for m in pending.get(s + 1, []):
            lam_m = lam_memo[m]
            mu = min(lam_memo[m ^ (1 << b)] for b in _bits(m))
            gain_m = mu - lam_m
            if gain_m >= cfg.delta_threshold:
                results.append((m, float(measures._sigma_of(lam_m)), gain_m))
        sig = measures._sigma_of(np.array([lam_memo[m] for m in eligible]))
        alive_prev = [m for m, alive in zip(eligible, sig >= cfg.sigma_threshold) if alive]
        pending[s] = alive_prev if 3 <= s <= smax else []
        if not alive_prev:
            break
    # size-3 pendings have their deletions at size 2, handled by the s=2 pass above
    results.sort(key=lambda r: (-bin(r[0]).count("1"), r[0]))
    return [(tuple(idx[b] for b in _bits(m)), sigma, gain) for m, sigma, gain in results]


def _extract(M: NDArray[np.float64], member_tuples, cfg: MinerConfig, descend: bool = True) -> list[measures.MultipoleRecord]:
    """Multipoles within the sorted member tuples, in input order.

    The tuples are screened in one stack per size. A tuple below
    sigma_threshold yields nothing; one that also reaches delta_threshold
    (within the size cap) is kept whole; any other is searched by _descend,
    seeded with the screen's eigenvalues, unless descend is false (brute
    force and random search score each subset as a whole only).
    """
    max_size = cfg.resolved_max_size()
    found: dict[int, list] = {}  # input position -> its qualifying (members, sigma, gain)
    for grp in _size_groups(member_tuples):
        lam, sigma, ok, mus, gain = _evaluate(M, np.asarray([member_tuples[t] for t in grp], dtype=np.intp), cfg)
        for row, r in enumerate(ok):
            t = grp[r]
            if len(member_tuples[t]) <= max_size and gain[row] >= cfg.delta_threshold:
                found[t] = [(member_tuples[t], sigma[r], gain[row])]
            elif descend:
                found[t] = _descend(M, member_tuples[t], float(lam[r]), mus[row], cfg)
    return _make_records(M, [f for t in sorted(found) for f in found[t]])


def extract_from_candidate(A, candidate: measures.SignedSet, cfg: MinerConfig) -> list[measures.MultipoleRecord]:
    """Multipoles within one candidate set.

    If the candidate passes both thresholds (and the size cap) it is returned
    alone. Otherwise, if its dependence clears sigma_threshold, subsets of
    size 3..max_size are searched largest-first with monotonicity pruning and
    an eigenvalue memo. A candidate below sigma_threshold yields nothing.
    Input is resolved and validated as in mine.
    """
    k = len(candidate.members)
    if k < 3:
        raise ValueError(f"candidate needs at least 3 members, got {k}")
    return _extract(_resolve_matrix(A), [candidate.members], cfg)


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
    return [replace(rec, maximal=True) for rec in _drop_contained(ordered, lambda r: r.members)]


def _final_sort(records) -> list[measures.MultipoleRecord]:
    return sorted(records, key=lambda r: (-r.gain, -r.sigma, r.signed))


def _dedup_candidates(g: graph.PromisingGraph, cliques) -> list[measures.SignedSet]:
    """Signed sets for cliques, one per distinct member set.

    Mirror cliques share a canonical signed set, and candidates with equal
    members but different signs extract identically (both thresholds are
    sign-invariant), so the first occurrence represents them all.
    """
    seen: set[tuple[int, ...]] = set()
    out = []
    for cl in cliques:
        ss = graph.clique_to_signed_set(g, cl)
        if ss.members in seen:
            continue
        seen.add(ss.members)
        out.append(ss)
    return out


def mine(data, cfg: MinerConfig) -> list[measures.MultipoleRecord]:
    """All maximal multipoles of a standardized dataset (or correlation matrix;
    a raw array is validated as a CorrelationMatrix first).

    Candidates come from maximal cliques of the dual-copy graph at cfg.rho;
    each candidate is searched for threshold-satisfying subsets; duplicates
    and non-maximal sets are removed; output is sorted by descending gain,
    then descending dependence, then members. Deterministic for fixed input
    and config.
    """
    M = _resolve_matrix(data)
    g = graph.build_graph(M, cfg.rho)
    partial = False
    try:
        cliques = graph.maximal_cliques(g, min_size=3, budget=cfg.clique_budget)
    except graph.CliqueBudgetExceeded as e:
        cliques = sorted(e.partial)
        partial = True
    candidates = _dedup_candidates(g, cliques)
    final = _final_sort(remove_non_maximal(_extract(M, [c.members for c in candidates], cfg)))
    if partial:
        raise MiningBudgetExceeded(
            f"clique budget of {cfg.clique_budget} exceeded after {len(candidates)} candidates; results are partial",
            final,
            len(candidates),
        )
    return final


def brute_force(data, cfg: MinerConfig, subset_budget: int = 2_000_000) -> list[measures.MultipoleRecord]:
    """Evaluate every subset of sizes 3..max_size; the completeness oracle.

    No pruning and no graph: results are exactly the maximal threshold-
    satisfying sets. Refuses instances whose subset count exceeds the budget.
    Input is resolved and validated as in mine.
    """
    M = _resolve_matrix(data)
    n = M.shape[0]
    smax = min(n, cfg.resolved_max_size())
    total = sum(math.comb(n, s) for s in range(3, smax + 1))
    if total > subset_budget:
        raise MiningBudgetExceeded(f"{total} subsets exceed the budget of {subset_budget}", records=[])

    records: list[measures.MultipoleRecord] = []
    for s in range(3, smax + 1):
        combos = list(itertools.combinations(range(n), s))
        for start in range(0, len(combos), 50_000):
            records += _extract(M, combos[start : start + 50_000], cfg, descend=False)
    return _final_sort(remove_non_maximal(records))


def random_search(A, cfg: MinerConfig, trials: int) -> list[measures.MultipoleRecord]:
    """Sample random subsets, keep the threshold-satisfying ones, dedup.

    No maximality filtering: the output approximates the full solution
    family, for use as a pseudo-complete reference on large instances.
    Input is resolved and validated as in mine.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    M = _resolve_matrix(A)
    n = M.shape[0]
    smax = min(n, cfg.resolved_max_size())
    rng = np.random.default_rng(cfg.seed)
    seen: set[tuple[int, ...]] = set()
    unique: list[tuple[int, ...]] = []
    for _ in range(trials):
        size = int(rng.integers(3, smax + 1))
        subset = tuple(int(x) for x in np.sort(rng.choice(n, size=size, replace=False)))
        if subset not in seen:
            seen.add(subset)
            unique.append(subset)
    return _final_sort(_extract(M, unique, cfg, descend=False))


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
        json.dump(dicts, fh, indent=2)
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
