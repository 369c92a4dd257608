"""Command-line interface: mining runs, oracles, samplers, significance.

Every command is a pure function of (input files, flags, seed). main runs
it and writes the one manifest next to its results. The manifest records
every flag the command defines except --out, as the command resolved it
(max_size derived from delta, parsed lists), with the input files listed
apart under "inputs", plus the result files and the wall-clock interval.
Result files are byte-reproducible; manifests carry timing and are not.

Exit codes: 0 success, 2 flag/input validation, 3 a search stage hit its
--budget (partial results written; manifest "stop" names it), 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, bounds, dataset, miner, stats


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _base_path(out: str) -> str:
    for suffix in (".json", ".csv"):
        if out.endswith(suffix):
            return out[: -len(suffix)]
    return out


# Flags naming input files: the manifest lists them under "inputs", not "config".
_INPUT_FLAGS = ("input", "inputs", "pool")


def _write_manifest(base: str, args, outputs: list, started: str, stop: str | None) -> str:
    """Write base.manifest.json: every flag of the command but --out, input files apart."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    inputs = []
    for flag in _INPUT_FLAGS:
        paths = config.pop(flag, [])
        inputs += [paths] if isinstance(paths, str) else paths
    path = base + ".manifest.json"
    body = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "partial": stop is not None,
        "stop": stop,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_standardized(path: str, detrend: bool) -> dataset.TimeSeriesDataset:
    try:
        raw = dataset.load_csv(path)
    except OSError as e:
        raise ValueError(f"cannot read input {path}: {e}")
    return dataset.standardize(raw, detrend=detrend)


# A command takes the parsed flags and the output base path, writes its result
# files, and returns (result paths, summary line, budget stop or None). A flag
# it resolves (a derived default, a parsed list) is stored back on args for the
# manifest.


def cmd_search(args, base: str):
    """mine, brute and random: one input, the thresholds, one search, records out."""
    cfg = miner.MinerConfig(sigma_threshold=args.sigma, delta_threshold=args.delta, rho=getattr(args, "rho", 0.0), max_size=args.max_size, budget=args.budget)
    args.max_size = cfg.resolved_max_size()
    d = _load_standardized(args.input, args.detrend)
    stop = None
    try:
        if args.command == "mine":
            records = miner.mine(d, cfg)
        elif args.command == "brute":
            records = miner.brute_force(d, cfg)
        else:
            records = miner.random_search(d, cfg, trials=args.trials, seed=args.seed)
    except miner.MiningBudgetExceeded as e:
        records, stop = e.partial, str(e)
        print(f"warning: {e}", file=sys.stderr)
    json_path = base + ".json"
    csv_path = base + ".csv"
    miner.write_records_json(records, d.names, json_path)
    miner.write_records_csv(records, d.names, csv_path)
    return [json_path, csv_path], f"{len(records)} multipoles", stop


def cmd_merge(args, base: str):
    lists = []
    for path in args.inputs:
        try:
            lists.append(miner.read_records_json(path))
        except OSError as e:
            raise ValueError(f"cannot read input {path}: {e}")
    merged = miner.merge_by_names(lists)
    json_path = base + ".json"
    csv_path = base + ".csv"
    miner.write_dicts_json(merged, json_path)
    miner.write_dicts_csv(merged, csv_path)
    return [json_path, csv_path], f"{len(merged)} multipoles", None


def _sampled_report(args):
    """stack_report_rows of the --count accepted matrices of size --k."""
    if not (3 <= args.k <= 8):
        raise ValueError("k must be in [3,8]")
    if args.count < 1:
        raise ValueError("count must be >= 1")
    return bounds.stack_report_rows(stats._accepted_stack(args.k, args.count, args.seed))


def cmd_sample(args, base: str):
    gain, rho_s, *_ = _sampled_report(args)
    csv_path = base + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,gain,rho_s\n")
        for g, r in zip(gain.tolist(), rho_s.tolist()):
            fh.write(f"{args.k},{g!r},{r!r}\n")
    return [csv_path], f"{args.count} matrices", None


def cmd_bounds(args, base: str):
    gain, rho_s, c1, c2, cap, violated = _sampled_report(args)
    csv_path = base + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,gain,rho_s,corollary1,corollary2,size_cap,violated\n")
        for t in range(gain.size):
            fh.write(
                f"{args.k},{gain[t]!r},{rho_s[t]!r},{c1[t]!r},{c2[t]!r},{cap[t]!r},{int(violated[t])}\n"
            )
    return [csv_path], f"{args.count} matrices, {int(violated.sum())} violations", None


def cmd_synth(args, base: str):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ValueError(f"sizes must be a comma list of integers, got {args.sizes!r}")
    if not sizes or any(s < 3 for s in sizes):
        raise ValueError("sizes must contain integers >= 3")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes must be distinct, got {args.sizes!r}")
    args.sizes = sizes
    if args.plant < 0:
        raise ValueError("plant must be >= 0")
    if not (0.0 < args.plant_sigma < 1.0):
        raise ValueError("plant-sigma must be in (0,1)")
    root = np.random.SeedSequence(args.seed)
    per_size = {s: args.plant // len(sizes) + (1 if i < args.plant % len(sizes) else 0) for i, s in enumerate(sizes)}
    seeds = root.spawn(len(sizes) + 1)
    planted = []
    for (s, n), ss in zip(per_size.items(), seeds[:-1]):
        planted.extend(
            stats.sample_planted_matrices(
                s, n, ss, dependence_min=args.plant_sigma, gain_min=args.plant_gain, rho_max=args.plant_rho
            )
        )
    total_members = sum(m.dim for m in planted)
    if args.noise_to < max(2, total_members):
        raise ValueError(f"noise-to must be at least max(2, planted member count {total_members})")
    d, truth = stats.synth_dataset(planted, args.noise_to - total_members, args.T, seeds[-1])
    csv_path = base + ".csv"
    truth_path = base + ".truth.json"
    dataset.save_csv(d, csv_path)
    miner.write_dicts_json({"planted": [[d.names[i] for i in block] for block in truth]}, truth_path)
    return [csv_path, truth_path], f"N={d.N} T={d.T} with {len(truth)} planted sets", None


def cmd_signif(args, base: str):
    d = _load_standardized(args.input, detrend=False)
    pool = [_load_standardized(p, detrend=False) for p in args.pool]
    for i, p in enumerate(pool):
        if p.names != d.names:
            raise ValueError(f"pool file {args.pool[i]} has different variable names than {args.input}")
    member_names = args.members = [m for m in map(str.strip, args.members.split(",")) if m]
    try:
        members = sorted(d.names.index(m) for m in member_names)
    except ValueError:
        missing = [m for m in member_names if m not in d.names]
        raise ValueError(f"members not found in {args.input}: {missing}")
    s_sig, s_rep = np.random.SeedSequence(args.seed).spawn(2)
    # reproducibility first: it rejects a bad alpha before any draw
    rep_count = stats.reproducibility(members, pool, args.alpha, pool, s_rep, samples=args.samples, repeats=args.repeats)
    sigma, p_sigma, *member_ps = stats._pvalues(d, members, pool, args.samples, args.repeats, s_sig)
    member_p = {d.names[m]: p for m, p in zip(members, member_ps)}
    json_path = base + ".json"
    body = {
        "multipole": [d.names[m] for m in members],
        "linear_dependence": sigma,
        "p_sigma": p_sigma,
        "member_pvalues": member_p,
        "alpha": args.alpha,
        "reproducible_count": rep_count,
        "window_count": len(pool),
    }
    miner.write_dicts_json(body, json_path)
    return [json_path], f"p_sigma={p_sigma:.6g} reproducible {rep_count}/{len(pool)}", None


def _add_search_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="input CSV of time series (header row of names)")
    p.add_argument("--sigma", type=float, default=0.5, help="linear dependence threshold, in [0,1]")
    p.add_argument("--delta", type=float, default=0.15, help="linear gain threshold, in (0,1]")
    p.add_argument("--max-size", type=int, default=None, help="largest set size, >= 3 (default: derived from delta)")
    p.add_argument("--detrend", action="store_true", help="subtract least-squares linear trends before standardizing")
    p.add_argument("--budget", type=int, default=miner.MinerConfig.budget, help="work cap per search stage: cliques, lattice sets, brute subsets; >= 1")
    p.add_argument("--out", required=True, help="output base path; writes .json, .csv, .manifest.json")
    p.set_defaults(func=cmd_search)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multipole",
        description="Mine multipoles: variable sets with high linear dependence and gain.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine maximal multipoles from a CSV dataset", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_search_flags(p)
    p.add_argument("--rho", type=float, default=0.0, help="graph correlation threshold, in [-1,1]")

    p = sub.add_parser("brute", help="exhaustive subset search (oracle)", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_search_flags(p)

    p = sub.add_parser("random", help="random-subset search", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_search_flags(p)
    p.add_argument("--trials", type=int, required=True, help="number of random subsets to draw, >= 0")
    p.add_argument("--seed", type=int, default=0, help="RNG seed, a non-negative integer")

    p = sub.add_parser("merge", help="union result files, dedup, drop non-maximal sets", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--inputs", nargs="+", required=True, help="result JSON files to merge")
    p.add_argument("--out", required=True, help="output base path; writes .json, .csv, .manifest.json")
    p.set_defaults(func=cmd_merge)

    for name, help_, func in (
        ("sample", "sample random correlation matrices; emit gain/rho_s scatter CSV", cmd_sample),
        ("bounds", "validate eigengap bounds over sampled matrices", cmd_bounds),
    ):
        p = sub.add_parser(name, help=help_, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--k", type=int, required=True, help="matrix size, in [3,8]")
        p.add_argument("--count", type=int, required=True, help="accepted matrices to sample, >= 1")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", required=True, help="output base path; writes .csv, .manifest.json")
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted multipoles", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--plant", type=int, required=True, help="number of planted sets, >= 0")
    p.add_argument("--sizes", default="3,4,5", help="comma list of distinct planted set sizes, each >= 3")
    p.add_argument("--noise-to", type=int, required=True, help="total variable count after noise padding")
    p.add_argument("--T", type=int, required=True, help="rows (timestamps), >= 50 * largest size")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--plant-sigma", type=float, default=0.75, help="minimum dependence of planted sets, in (0,1)")
    p.add_argument("--plant-gain", type=float, default=0.15, help="minimum gain of planted sets")
    p.add_argument("--plant-rho", type=float, default=-0.2, help="maximum self-canceling correlation of planted sets")
    p.add_argument("--out", required=True, help="output base path; writes .csv, .truth.json, .manifest.json")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("signif", help="significance and reproducibility of one member set", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--input", required=True, help="context dataset CSV the set was mined from")
    p.add_argument("--members", required=True, help="comma list of member variable names")
    p.add_argument("--pool", nargs="+", required=True, help="window dataset CSVs forming the null pool")
    p.add_argument("--samples", type=int, default=10_000, help="null sets for the dependence test, >= 1")
    p.add_argument("--repeats", type=int, default=1_000, help="replacements per member test, >= 100")
    p.add_argument("--alpha", type=float, default=0.01, help="significance level, in (0,1)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", required=True, help="output base path; writes .json, .manifest.json")
    p.set_defaults(func=cmd_signif)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = _utcnow()
    try:
        base = _base_path(args.out)
        outputs, summary, stop = args.func(args, base)
        manifest = _write_manifest(base, args, outputs, started, stop)
        print(f"{args.command}: {summary} -> {', '.join([*outputs, manifest])}")
        return 3 if stop is not None else 0
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
