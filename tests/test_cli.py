"""End-to-end CLI tests: exit codes, file outputs, and determinism."""

import argparse
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from multipoles import bounds, dataset, miner, stats
from multipoles.cli import build_parser, main


@pytest.fixture()
def planted_csv(tmp_path):
    mat = np.full((3, 3), -0.45)
    np.fill_diagonal(mat, 1.0)
    d, truth = stats.synth_dataset([mat], 7, 400, np.random.SeedSequence(200))
    p = tmp_path / "data.csv"
    dataset.save_csv(d, p)
    return p, truth[0], d.names


def run(argv, capsys=None):
    return main([str(a) for a in argv])


def test_mine_writes_results_and_manifest(tmp_path, planted_csv):
    path, truth, names = planted_csv
    out = tmp_path / "r.json"
    code = run(["mine", "--input", path, "--sigma", "0.5", "--delta", "0.15",
                "--rho", "0", "--out", out])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "r.csv").exists()
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["command"] == "mine"
    assert manifest["partial"] is False
    assert manifest["stop"] is None
    assert "seed" not in manifest["config"]
    recs = json.loads(out.read_text())
    assert len(recs) == 1
    assert sorted(recs[0]["members"]) == sorted(names[i] for i in truth)


def test_mine_rerun_is_byte_identical(tmp_path, planted_csv):
    path, _, _ = planted_csv
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["mine", "--input", path, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_mine_validation_exit_codes(tmp_path, planted_csv, capsys):
    path, _, _ = planted_csv
    out = tmp_path / "x.json"
    assert run(["mine", "--input", path, "--delta", "0", "--out", out]) == 2
    assert "delta must be in (0,1]" in capsys.readouterr().err
    assert run(["mine", "--input", path, "--sigma", "2", "--out", out]) == 2
    assert run(["mine", "--input", path, "--rho", "-3", "--out", out]) == 2
    assert run(["mine", "--input", tmp_path / "nope.csv", "--out", out]) == 2
    assert run(["mine", "--input", path, "--budget", "0", "--out", out]) == 2
    assert "budget must be >= 1" in capsys.readouterr().err
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b,c\n")
    assert run(["mine", "--input", header_only, "--out", out]) == 2
    assert "at least 3 rows, got 0" in capsys.readouterr().err


def test_output_path_errors_exit_2(tmp_path, planted_csv, capsys):
    # a result path that is a directory, or under a missing one, is a file error
    path, _, _ = planted_csv
    (tmp_path / "r.json").mkdir()
    assert run(["mine", "--input", path, "--out", tmp_path / "r"]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert run(["mine", "--input", path, "--out", tmp_path / "absent" / "r"]) == 2
    assert run(["mine", "--input", tmp_path / "absent.csv", "--out", tmp_path / "s"]) == 2
    assert run(["merge", "--inputs", tmp_path / "absent.json", "--out", tmp_path / "m"]) == 2


def test_mine_budget_exit_code(tmp_path, planted_csv):
    path, _, _ = planted_csv
    # the clique and lattice stages of mine (24 cliques at rho 0), and brute's refusal
    for name, command, flags, stop in (
        ("clique", "mine", ["--rho", "1", "--budget", "2"], "clique stage stopped"),
        ("lattice", "mine", ["--budget", "25"], "subset lattice stopped at size 2"),
        ("brute", "brute", ["--budget", "10"], "brute force refused"),
    ):
        out = tmp_path / f"{name}-partial.json"
        code = run([command, "--input", path, *flags, "--out", out])
        assert code == 3
        manifest = json.loads((tmp_path / f"{name}-partial.manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["stop"].startswith(stop)
        assert out.exists()  # partial results still written
    # brute refuses the whole instance: its result is empty
    assert json.loads((tmp_path / "brute-partial.json").read_text()) == []


def test_mine_skips_candidates_above_the_eigensolver_cap(tmp_path):
    # 70 white-noise variables at rho 0.3 are one 70-member candidate
    data = tmp_path / "n70"
    assert run(["synth", "--plant", "0", "--noise-to", "70", "--T", "500", "--seed", "3", "--out", data]) == 0
    out = tmp_path / "m"
    assert run(["mine", "--input", f"{data}.csv", "--rho", "0.3", "--budget", "1000", "--out", out]) == 3
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["partial"] is True
    assert "subset lattice skipped 1 member set(s) of size 70" in manifest["stop"]
    assert json.loads((tmp_path / "m.json").read_text()) == []
    assert (tmp_path / "m.csv").exists()


def test_brute_matches_mine_at_rho_one(tmp_path, planted_csv):
    path, _, _ = planted_csv
    m = tmp_path / "m.json"
    b = tmp_path / "b.json"
    assert run(["mine", "--input", path, "--rho", "1", "--out", m]) == 0
    assert run(["brute", "--input", path, "--out", b]) == 0
    assert json.loads(m.read_text()) == json.loads(b.read_text())


def test_seed_flag_only_on_random(tmp_path, planted_csv):
    path, _, _ = planted_csv
    for command in ("mine", "brute"):
        with pytest.raises(SystemExit):
            run([command, "--input", path, "--seed", "7", "--out", tmp_path / command])
    assert run(["random", "--input", path, "--trials", "10", "--seed", "7", "--out", tmp_path / "r"]) == 0
    assert json.loads((tmp_path / "r.manifest.json").read_text())["config"]["seed"] == 7


def test_random_zero_trials(tmp_path, planted_csv):
    path, _, _ = planted_csv
    out = tmp_path / "r0.json"
    assert run(["random", "--input", path, "--trials", "0", "--out", out]) == 0
    assert json.loads(out.read_text()) == []


def test_merge_dedups_subsets(tmp_path, planted_csv):
    path, _, _ = planted_csv
    m = tmp_path / "m.json"
    b = tmp_path / "b.json"
    merged = tmp_path / "merged.json"
    assert run(["mine", "--input", path, "--out", m]) == 0
    assert run(["brute", "--input", path, "--out", b]) == 0
    assert run(["merge", "--inputs", m, b, "--out", merged]) == 0
    rows = json.loads(merged.read_text())
    keys = [frozenset(r["members"]) for r in rows]
    assert len(keys) == len(set(keys))
    for a_ in keys:
        for b_ in keys:
            assert not (a_ < b_)


def test_merge_rejects_malformed_members(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = {"members": ["a", "b", "c"]}
    bad.write_text(json.dumps([{"members": ["a", "b"]}]))
    assert run(["merge", "--inputs", bad, "--out", tmp_path / "merged.json"]) == 2
    assert "entry 0" in capsys.readouterr().err
    # the keys merge sorts and writes must be numbers or lists, not an internal error
    for key, value in (("linear_gain", "high"), ("linear_dependence", None), ("signs", 3), ("weights", 5)):
        bad.write_text(json.dumps([good, {**good, key: value}]))
        assert run(["merge", "--inputs", bad, "--out", tmp_path / "merged.json"]) == 2
        assert "entry 1" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["linear_gain", "linear_dependence"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_merge_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    # Python's json reads these tokens, but they are not JSON and would be written back
    bad = tmp_path / "bad.json"
    bad.write_text(f'[{{"members": ["a", "b", "c"]}}, {{"members": ["d", "e", "f"], "{key}": {value}}}]')
    assert run(["merge", "--inputs", bad, "--out", tmp_path / "merged.json"]) == 2
    assert f"entry 1 has a non-finite '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "merged.json").exists()


def test_merge_accepts_members_only_entries(tmp_path):
    src = tmp_path / "bare.json"
    src.write_text(json.dumps([{"members": ["a", "b", "c"]}]))
    assert run(["merge", "--inputs", src, "--out", tmp_path / "merged.json"]) == 0
    rows = (tmp_path / "merged.csv").read_text().splitlines()
    assert rows[1:] == ["a;b;c,,,,,"]


def test_sample_scatter_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sample", "--k", "3", "--count", "500", "--seed", "1",
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,gain,rho_s"
    gains = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(gains) == 500
    assert max(gains) <= 0.5 + 1e-9


def test_sample_rows_are_the_bounds_report_columns(tmp_path):
    # sample writes the gain and rho_s of the bounds report of the same draw:
    # the repr of each value, and the same numbers as the bounds command's cells
    for k in (3, 6):
        argv = ["--k", k, "--count", "300", "--seed", "5"]
        assert run(["sample", *argv, "--out", tmp_path / "s.csv"]) == 0
        assert run(["bounds", *argv, "--out", tmp_path / "b.csv"]) == 0
        gain, rho_s, *_ = bounds.stack_report_rows(stats._accepted_stack(k, 300, 5))
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert rows == [f"{k},{g!r},{r!r}" for g, r in zip(gain.tolist(), rho_s.tolist())]
        cells = [re.sub(r"np\.float64\((.*?)\)", r"\1", line) for line in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        assert rows == [",".join(c.split(",")[:3]) for c in cells]


def test_sample_rejects_bad_k(tmp_path):
    assert run(["sample", "--k", "9", "--count", "10",
                "--out", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("command", ["sample", "bounds"])
def test_sampler_commands_give_up_at_k_8(tmp_path, capsys, command):
    # uniform draws at k=8 are almost never PSD: exit 2 instead of running forever
    assert run([command, "--k", "8", "--count", "1", "--out", tmp_path / "x"]) == 2
    assert "none of the first 524288 k=8 draws" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_bounds_report_has_no_violations(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--k", "4", "--count", "300", "--seed", "2",
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,gain,rho_s,corollary1,corollary2,size_cap,violated"
    assert len(lines) == 301
    assert all(l.rsplit(",", 1)[1] == "0" for l in lines[1:])


def test_synth_emits_dataset_and_truth(tmp_path):
    out = tmp_path / "syn.csv"
    assert run(["synth", "--plant", "4", "--sizes", "3,4", "--noise-to", "30",
                "--T", "300", "--seed", "3", "--out", out]) == 0
    truth = json.loads((tmp_path / "syn.truth.json").read_text())
    assert len(truth["planted"]) == 4
    d = dataset.load_csv(out)
    assert d.N == 30 and d.T == 300
    name_set = set(d.names)
    for group in truth["planted"]:
        assert set(group) <= name_set


def test_synth_noise_to_must_cover_planted(tmp_path, capsys, monkeypatch):
    # the member count is known from the shares: refused before any block is drawn
    draws = []
    monkeypatch.setattr(stats, "sample_planted_matrices", lambda *a, **kw: draws.append(a) or [])
    assert run(["synth", "--plant", "4", "--sizes", "5", "--noise-to", "10",
                "--T", "300", "--out", tmp_path / "x.csv"]) == 2
    assert "noise-to must be at least max(2, planted member count 20)" in capsys.readouterr().err
    assert draws == [] and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sizes", ["3,3", "3,4,3"])
def test_synth_rejects_a_repeated_size(tmp_path, capsys, monkeypatch, sizes):
    # one share per size: a repeated size would drop its earlier share of --plant
    draws = []
    monkeypatch.setattr(stats, "sample_planted_matrices", lambda *a, **kw: draws.append(a) or [])
    assert run(["synth", "--plant", "3", "--sizes", sizes, "--noise-to", "20",
                "--T", "400", "--seed", "1", "--out", tmp_path / "x"]) == 2
    assert "sizes must be distinct" in capsys.readouterr().err
    assert draws == [] and not (tmp_path / "x.csv").exists()


def test_synth_unreachable_thresholds_exit_2(tmp_path, capsys, monkeypatch):
    # no block of size 6 or more meets the planted thresholds (stats.sample_planted_matrices):
    # such a size is refused before any block is drawn, also when its share of --plant is 0
    draws = []
    monkeypatch.setattr(stats, "sample_planted_matrices", lambda *a, **kw: draws.append(a) or [])
    for plant, sizes in (("1", "6"), ("1", "7"), ("1", "8"), ("1", "9"), ("1", "3,6"), ("0", "6")):
        assert run(["synth", "--plant", plant, "--sizes", sizes, "--noise-to", "10",
                    "--T", "500", "--out", tmp_path / "x"]) == 2
        assert "sizes must contain integers in [3, 5]" in capsys.readouterr().err
        assert draws == [] and not (tmp_path / "x.csv").exists()
    for flag in ("--plant-sigma", "--plant-gain", "--plant-rho"):
        with pytest.raises(SystemExit):
            run(["synth", "--plant", "1", "--sizes", "3", flag, "0.5", "--noise-to", "10",
                 "--T", "500", "--out", tmp_path / "x"])
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


def test_signif_end_to_end(tmp_path, planted_csv):
    path, truth, names = planted_csv
    pool_paths = []
    for i, ss in enumerate(np.random.SeedSequence(201).spawn(3)):
        w, _ = stats.synth_dataset([], 10, 400, ss)
        w = dataset.TimeSeriesDataset(names=names, values=w.values)
        p = tmp_path / f"w{i}.csv"
        dataset.save_csv(w, p)
        pool_paths.append(p)
    members = ",".join(names[i] for i in truth)
    out = tmp_path / "sig.json"
    code = run(["signif", "--input", path, "--members", members,
                "--pool", *pool_paths, "--samples", "2000", "--repeats", "200",
                "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["p_sigma"] < 0.01
    assert set(rep["member_pvalues"]) == {names[i] for i in truth}
    assert all(p < 0.01 for p in rep["member_pvalues"].values())
    assert rep["window_count"] == 3


def test_signif_rejects_unknown_member(tmp_path, planted_csv):
    path, _, names = planted_csv
    w, _ = stats.synth_dataset([], 10, 400, np.random.SeedSequence(202))
    w = dataset.TimeSeriesDataset(names=names, values=w.values)
    p = tmp_path / "w.csv"
    dataset.save_csv(w, p)
    assert run(["signif", "--input", path, "--members", "ghost,a,b",
                "--pool", p, "--out", tmp_path / "x.json"]) == 2


def test_signif_strips_member_names(tmp_path, planted_csv):
    path, truth, names = planted_csv
    pool = write_pool(tmp_path, names, 206)
    spaced = " , ".join(names[i] for i in truth) + ", "
    assert run(["signif", "--input", path, "--members", spaced, "--pool", *pool,
                "--samples", "50", "--repeats", "100", "--out", tmp_path / "sig"]) == 0
    assert json.loads((tmp_path / "sig.json").read_text())["multipole"] == [names[i] for i in truth]


def write_pool(tmp_path, names, seed, count=3):
    """count white-noise windows with the context file's names and T."""
    paths = []
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(count)):
        w, _ = stats.synth_dataset([], len(names), 400, ss)
        paths.append(tmp_path / f"w{i}.csv")
        dataset.save_csv(dataset.TimeSeriesDataset(names=names, values=w.values), paths[-1])
    return paths


@pytest.mark.parametrize("flags", [
    ["--alpha", "0"], ["--alpha", "1"], ["--samples", "0"], ["--repeats", "99"],
    ["--members", "{0},{0},{1}"], ["--members", "{0},{1}"],
])
def test_signif_validation_exit_codes(tmp_path, planted_csv, flags):
    # stats checks every value once; the later of two equal flags wins
    path, truth, names = planted_csv
    pool = write_pool(tmp_path, names, 204)
    members = ",".join(names[i] for i in truth)
    assert run(["signif", "--input", path, "--members", members, "--pool", *pool,
                "--samples", "50", "--repeats", "100", *[f.format(*names) for f in flags],
                "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "x.manifest.json").exists()


def test_signif_report_is_the_pvalue_sequence(tmp_path, planted_csv):
    path, truth, names = planted_csv
    pool_paths = write_pool(tmp_path, names, 205)
    assert run(["signif", "--input", path, "--members", ",".join(names[i] for i in truth[::-1]),
                "--pool", *pool_paths, "--samples", "300", "--repeats", "100", "--seed", "9",
                "--out", tmp_path / "sig"]) == 0
    rep = json.loads((tmp_path / "sig.json").read_text())
    d = dataset.standardize(dataset.load_csv(path))
    pool = [dataset.standardize(dataset.load_csv(p)) for p in pool_paths]
    s_sig, _ = np.random.SeedSequence(9).spawn(2)
    sigma, p_sigma, *member_ps = stats._pvalues(d, truth, pool, 300, 100, s_sig)
    assert rep["multipole"] == [names[i] for i in truth]
    assert rep["linear_dependence"] == sigma
    assert rep["p_sigma"] == p_sigma
    assert rep["member_pvalues"] == {names[m]: p for m, p in zip(truth, member_ps)}


def test_every_manifest_records_every_flag(tmp_path, planted_csv):
    # main writes every command's manifest: config holds each flag the command
    # defines but --out and the input files, which are listed under inputs
    path, truth, names = planted_csv
    pool = []
    for i, ss in enumerate(np.random.SeedSequence(203).spawn(3)):
        w, _ = stats.synth_dataset([], 10, 400, ss)
        pool.append(tmp_path / f"w{i}.csv")
        dataset.save_csv(dataset.TimeSeriesDataset(names=names, values=w.values), pool[-1])
    results = [tmp_path / "m.json", tmp_path / "b.json"]
    assert run(["mine", "--input", path, "--out", results[0]]) == 0
    assert run(["brute", "--input", path, "--out", results[1]]) == 0
    members = [names[i] for i in truth]
    # command -> (flags, input files, one flag the command resolves and its recorded value)
    cases = {
        "mine": (["--input", path], [path], ("max_size", 7)),
        "brute": (["--input", path], [path], ("max_size", 7)),
        "random": (["--input", path, "--trials", "5"], [path], ("max_size", 7)),
        "merge": (["--inputs", *results], results, None),
        "sample": (["--k", "3", "--count", "5"], [], None),
        "bounds": (["--k", "3", "--count", "5"], [], None),
        "synth": (["--plant", "1", "--noise-to", "8", "--T", "300"], [], ("sizes", [3, 4, 5])),
        "signif": (["--input", path, "--members", ",".join(members), "--pool", *pool,
                    "--samples", "50", "--repeats", "100"], [path, *pool], ("members", members)),
    }
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cases)
    for command, sub in commands.items():
        argv, inputs, resolved = cases[command]
        assert run([command, *argv, "--out", tmp_path / command]) == 0
        manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
        flags = {a.dest for a in sub._actions if a.dest != "help"}
        assert manifest["command"] == command
        assert set(manifest["config"]) == flags - {"out", "input", "inputs", "pool"}
        assert manifest["inputs"] == [str(p) for p in inputs]
        if resolved:
            assert manifest["config"][resolved[0]] == resolved[1]


def test_search_defaults_are_the_miner_config_defaults():
    # one place for the thresholds: a flag left out gives MinerConfig's value
    fields = {"sigma": "sigma_threshold", "delta": "delta_threshold", "rho": "rho", "max_size": "max_size", "budget": "budget"}
    for command, extra in (("mine", []), ("brute", []), ("random", ["--trials", "1"])):
        args = build_parser().parse_args([command, "--input", "x.csv", *extra, "--out", "x"])
        for flag, field in fields.items():
            if flag != "rho" or command == "mine":
                assert getattr(args, flag) == getattr(miner.MinerConfig, field), (command, flag)


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "multipoles.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("multipole ")


def test_help_lists_all_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "multipoles.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for cmd in ("mine", "brute", "random", "merge", "sample", "bounds",
                "synth", "signif"):
        assert cmd in proc.stdout
