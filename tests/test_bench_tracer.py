"""The benchmark's tracer (bench/tracer.py) against the library.

The tracer wraps public hypwave functions by name from outside, so a
rename or deletion in src would silently zero its per-layer figures.
bench/ is read here, never written: the tracer's source is compiled in
memory, with no bytecode cache left beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

from hypwave import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module


def test_every_target_resolves(tracer):
    for mod, cls, attr, name in tracer.TARGETS:
        owner = importlib.import_module(f"hypwave.{mod}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), name


def test_threshold_run_is_traced(tracer, tmp_path):
    # a wavecli threshold search probes through the public
    # contraction_probe once at the floor and once per bisection step
    n_steps, n_pairs = 5, 2
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[grid]\nt_max = 1.0\nr_max = 2.0\ndt = 0.25\ndr = 0.25\n"
        "[solver]\np = 3.5\nh = 1.2\n"
        f"[contraction]\nmode = threshold\nn_pairs = {n_pairs}\n"
        f"n_steps = {n_steps}\n", encoding="utf-8")
    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(["contraction", "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--seed", "3"])
    finally:
        spans.uninstall()
    assert code == 0
    layers = tracer.layer_metrics(spans.spans, spans.counts, 0)
    assert layers["globalsolver.contraction_probe.calls"] == n_steps + 1
    assert layers["globalsolver.epsilon_threshold.s"] > 0.0
    assert layers["globalsolver.pairs"] > 0
    assert layers["globalsolver.pairs"] % n_pairs == 0
    assert layers["globalsolver.duhamel_per_pair"] > 0.0
