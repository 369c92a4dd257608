"""Which functions of the multipoles package are traced, and the per-layer
metrics derived from their spans.

Layers are named after the package's modules. Private entry points
(``miner._dedup_candidates``, ``measures._deletion_min_eigvals``,
``stats._accepted_stack``) are wrapped optionally: if a later version
renames one, its metrics are reported as absent and the run goes on.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Tracer, self_times

EIGH_KS = range(2, 9)
SAMPLER_PSD_TOL = 1e-10  # stats._accepted_stack keeps a draw iff its smallest eigenvalue >= -tol

# name -> unit, in the order they are printed
METRICS = {
    "dataset.load_csv.busy_s": "s",
    "dataset.standardize.busy_s": "s",
    "dataset.correlation_matrix.busy_s": "s",
    "dataset.correlation_matrix.calls": "count",
    "graph.build_graph.busy_s": "s",
    "graph.edges": "count",
    "graph.maximal_cliques.busy_s": "s",
    "graph.cliques": "count",
    "miner.candidates": "count",
    "miner.candidates_per_clique": "ratio",
    "miner.dedup.busy_s": "s",
    "miner.extract_from_candidate.busy_s": "s",
    "miner.extract_from_candidate.self_s": "s",
    "miner.extract_from_candidate.calls": "count",
    "miner.extract_from_candidate.records": "count",
    "miner.remove_non_maximal.busy_s": "s",
    "miner.brute_force.busy_s": "s",
    "miner.records": "count",
    "miner.write.busy_s": "s",
    "measures.deletion.busy_s": "s",
    "linalg.eigh_many.busy_s": "s",
    "linalg.eigh_many.calls": "count",
    "linalg.eigh_many.matrices": "count",
    "linalg.matrices_per_call": "matrices/call",
    **{f"linalg.eigh_many.k{k}.matrices_per_s": "1/s" for k in EIGH_KS},
    "bounds.stack_report_rows.busy_s": "s",
    "stats.sampler.busy_s": "s",
    "stats.sampler.draws": "count",
    "stats.sampler.accepted": "count",
    "stats.sampler.accept_ratio": "ratio",
    "trace.overhead_s": "s",
}

# metrics that cannot be derived when the named span is missing
_NEEDS = {
    "miner.dedup": ("miner.dedup.busy_s",),
    "measures.deletion": ("measures.deletion.busy_s",),
    "stats.sampler": (
        "stats.sampler.busy_s",
        "stats.sampler.draws",
        "stats.sampler.accepted",
        "stats.sampler.accept_ratio",
    ),
}


def _stack_shape(args, kwargs):
    mats = args[0] if args else kwargs["mats"]
    n, k = mats.shape[0], mats.shape[1]
    return {"n": int(n), "k": int(k)}


def _count(key, fn):
    def after(sp, result):
        sp.info = {key: fn(result)}

    return after


class LayerTracer(Tracer):
    """A Tracer that knows the multipoles layers and counts candidates."""

    def __init__(self):
        super().__init__()
        self._members: dict[object, set] = defaultdict(set)

    def install(self, mp) -> None:
        """Wrap the layer functions of the imported package modules ``mp``."""
        w = self.wrap
        w(mp.dataset, "load_csv", "dataset.load_csv")
        w(mp.dataset, "standardize", "dataset.standardize")
        w(mp.dataset, "correlation_matrix", "dataset.correlation_matrix")
        w(mp.graph, "build_graph", "graph.build_graph",
          after=_count("edges", lambda g: sum(len(a) for a in g.adjacency) // 2))
        w(mp.graph, "maximal_cliques", "graph.maximal_cliques", after=_count("cliques", len))
        w(mp.graph, "clique_to_signed_set", "graph.clique_to_signed_set", timed=False,
          after=lambda _, ss: self._members[self.job].add(ss.members))
        w(mp.miner, "_dedup_candidates", "miner.dedup", optional=True)
        w(mp.miner, "extract_from_candidate", "miner.extract_from_candidate", after=_count("records", len))
        w(mp.miner, "remove_non_maximal", "miner.remove_non_maximal")
        w(mp.miner, "mine", "miner.mine", after=_count("records", len))
        w(mp.miner, "brute_force", "miner.brute_force", after=_count("records", len))
        w(mp.miner, "write_records_json", "miner.write")
        w(mp.miner, "write_records_csv", "miner.write")
        w(mp.measures, "_deletion_min_eigvals", "measures.deletion", optional=True)
        w(mp.linalg, "eigh_many", "linalg.eigh_many", before=_stack_shape, after=self._count_accepted)
        w(mp.bounds, "stack_report_rows", "bounds.stack_report_rows")
        w(mp.stats, "_accepted_stack", "stats.sampler", optional=True)

    def _count_accepted(self, sp, result) -> None:
        """On a batch of sampler draws, count the ones the sampler keeps."""
        if sp.parent is not None and self.spans[sp.parent].name == "stats.sampler":
            sp.info["accepted"] = int((result[0][:, 0] >= -SAMPLER_PSD_TOL).sum())

    def metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per traced pass: busy times and counts divided
        by the number of traced passes."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        info: dict[str, float] = defaultdict(float)
        k_matrices: dict[int, int] = defaultdict(int)
        k_busy: dict[int, float] = defaultdict(float)
        draws = accepted = 0
        extract_self = 0.0
        selfs = self_times(self.spans)
        for i, sp in enumerate(self.spans):
            busy[sp.name] += sp.duration
            calls[sp.name] += 1
            for key, v in (sp.info or {}).items():
                if isinstance(v, (int, float)):
                    info[f"{sp.name}.{key}"] += v
            if sp.name == "linalg.eigh_many":
                k_matrices[sp.info["k"]] += sp.info["n"]
                k_busy[sp.info["k"]] += sp.duration
                if sp.parent is not None and self.spans[sp.parent].name == "stats.sampler":
                    draws += sp.info["n"]
                    accepted += sp.info["accepted"]
            elif sp.name == "miner.extract_from_candidate":
                extract_self += selfs[i]
        cliques = info["graph.maximal_cliques.cliques"]
        candidates = sum(len(m) for m in self._members.values())
        eigh_calls = calls["linalg.eigh_many"]
        total = {
            "dataset.load_csv.busy_s": busy["dataset.load_csv"],
            "dataset.standardize.busy_s": busy["dataset.standardize"],
            "dataset.correlation_matrix.busy_s": busy["dataset.correlation_matrix"],
            "dataset.correlation_matrix.calls": calls["dataset.correlation_matrix"],
            "graph.build_graph.busy_s": busy["graph.build_graph"],
            "graph.edges": info["graph.build_graph.edges"],
            "graph.maximal_cliques.busy_s": busy["graph.maximal_cliques"],
            "graph.cliques": cliques,
            "miner.candidates": candidates,
            "miner.dedup.busy_s": busy["miner.dedup"],
            "miner.extract_from_candidate.busy_s": busy["miner.extract_from_candidate"],
            "miner.extract_from_candidate.self_s": extract_self,
            "miner.extract_from_candidate.calls": calls["miner.extract_from_candidate"],
            "miner.extract_from_candidate.records": info["miner.extract_from_candidate.records"],
            "miner.remove_non_maximal.busy_s": busy["miner.remove_non_maximal"],
            "miner.brute_force.busy_s": busy["miner.brute_force"],
            "miner.records": info["miner.mine.records"] + info["miner.brute_force.records"],
            "miner.write.busy_s": busy["miner.write"],
            "measures.deletion.busy_s": busy["measures.deletion"],
            "linalg.eigh_many.busy_s": busy["linalg.eigh_many"],
            "linalg.eigh_many.calls": eigh_calls,
            "linalg.eigh_many.matrices": sum(k_matrices.values()),
            "bounds.stack_report_rows.busy_s": busy["bounds.stack_report_rows"],
            "stats.sampler.busy_s": busy["stats.sampler"],
            "stats.sampler.draws": draws,
            "stats.sampler.accepted": accepted,
        }
        out = {name: float(v) / passes for name, v in total.items()}
        # ratios are of totals, so they need no division by passes
        out["miner.candidates_per_clique"] = candidates / cliques if cliques else 0.0
        out["linalg.matrices_per_call"] = sum(k_matrices.values()) / eigh_calls if eigh_calls else 0.0
        for k in EIGH_KS:
            out[f"linalg.eigh_many.k{k}.matrices_per_s"] = k_matrices[k] / k_busy[k] if k_busy[k] else 0.0
        out["stats.sampler.accept_ratio"] = accepted / draws if draws else 0.0
        out["trace.overhead_s"] = overhead_s
        for span_name, names in _NEEDS.items():
            if span_name in self.absent:
                for name in names:
                    out.pop(name)
        return {name: out[name] for name in METRICS if name in out}
