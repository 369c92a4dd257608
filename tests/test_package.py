"""Package surface: every advertised export exists, and every function the
benchmark's layer tracer wraps is still there."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import multipoles
from multipoles import bounds, dataset, graph, linalg, measures, miner, stats

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
