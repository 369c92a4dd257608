"""Package surface: every advertised export exists, every function the
benchmark's layer tracer wraps is still there, the benchmark's self-check
passes, no private helper or constant is left without a reader, and README
names only flags the parser defines."""

import argparse
import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import multipoles
from multipoles import bounds, dataset, graph, linalg, measures, miner, stats
from multipoles.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(multipoles.__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in multipoles.__all__ if not hasattr(multipoles, name)]
    assert missing == []
    assert len(set(multipoles.__all__)) == len(multipoles.__all__)


def test_bench_tracer_finds_every_layer(monkeypatch):
    # a renamed layer function fails here instead of in `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    modules = SimpleNamespace(
        bounds=bounds, dataset=dataset, graph=graph, linalg=linalg, measures=measures, miner=miner, stats=stats
    )
    originals = {(m, attr): value for m in vars(modules).values() for attr, value in vars(m).items()}
    tracer = layers.LayerTracer()
    tracer.install(modules)
    try:
        assert tracer.absent == {}
    finally:
        tracer.unwrap_all()
    assert all(getattr(m, attr) is value for (m, attr), value in originals.items())


def test_bench_selfcheck_passes():
    # the tracer also reads shapes the name check above cannot see, such as
    # PromisingGraph.adjacency or the list maximal_cliques returns; the
    # self-check runs every workload at tiny size, traced and untraced
    done = subprocess.run(
        [sys.executable, str(BENCH / "selfcheck.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def _referenced_names(tree) -> list[str]:
    """Names a module uses: identifiers, attributes, imported names and
    string constants (the layer tracer names what it wraps by string)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
    return out


def _loaded_names(tree) -> set[str]:
    """Names a module reads: identifiers and attributes in a load context."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_has_a_caller():
    # a module-level _private function, class or constant that nothing in the
    # package or the benchmark refers to is dead code left behind by a
    # refactor; a constant counts as used only where it is read
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    loaded = set().union(*map(_loaded_names, trees.values()))
    modules = [(f.stem, tree.body) for f, tree in trees.items() if f.parent == SRC]
    private = [
        f"{stem}.{node.name}"
        for stem, body in modules
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name)
    ]
    constants = [
        f"{stem}.{target.id}"
        for stem, body in modules
        for node in body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and _private(target.id)
    ]
    assert private and constants
    assert [name for name in private if name.split(".", 1)[1] not in used] == []
    assert [name for name in constants if name.split(".", 1)[1] not in loaded] == []


def test_readme_command_line_flags_exist():
    # a flag README's "Command line" section names but no subcommand defines is a stale doc
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    defined = {flag for sub in subcommands.values() for a in sub._actions for flag in a.option_strings}
    assert named
    assert sorted(named - defined) == []
