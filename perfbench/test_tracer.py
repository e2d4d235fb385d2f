"""Tests of the outside-in tracer.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

from avgrl import cli, features, mdp, metrics  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _namespace_snapshot() -> dict:
    return {(mod.__name__, attr): obj for mod in tracer._avgrl_modules()
            for attr, obj in vars(mod).items()}


@pytest.mark.parametrize("command", [
    ["train", "--env", "four-state", "--steps", "2000", "--metrics-every", "100"],
    ["sweep", "--env", "gridworld4", "--steps", "1000", "--metrics-every", "100",
     "--seeds", "2", "--jobs", "1"],
])
def test_traced_run_writes_identical_outputs(tmp_path, command):
    before = _namespace_snapshot()
    outs = []
    for label, trace in (("plain", None), ("traced", tracer.Tracer())):
        out = tmp_path / label
        out.mkdir()
        target = str(out / "metrics.csv") if command[0] == "train" else str(out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), (trace or contextlib.nullcontext()):
            assert cli.main(command + ["--out", target]) == 0
        assert any(name.endswith(".csv") for name in os.listdir(out))
        call = workloads.Call(argv=command, out=str(out), command=command[0])
        outs.append(workloads.output_digest(call, buf.getvalue()))
    assert outs[0] == outs[1]
    summary = tracer.summarize(trace.spans)
    rows = summary["functions"]["metrics.exact_metrics_row"]["calls"]
    assert rows == 20
    solves = summary["functions"]["mdp.stationary_distribution"]
    assert solves["calls_in_row"] == 3 * rows
    assert tracer.leftover_wrappers() == []
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_wraps_every_namespace_that_binds_a_function():
    original = mdp.stationary_distribution
    with tracer.Tracer():
        wrapped = mdp.stationary_distribution
        assert wrapped is not original
        assert features.stationary_distribution is wrapped
        assert metrics.stationary_distribution is wrapped
        assert tracer.leftover_wrappers()
    assert mdp.stationary_distribution is original
    assert features.stationary_distribution is original
    assert tracer.leftover_wrappers() == []


def test_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert tracer.leftover_wrappers() == []


def test_self_times_add_up_to_the_root_span():
    spans = [
        (0, -1, "cli.main", 0, 100),
        (1, 0, "learner.run", 10, 60),
        (2, 1, "metrics.exact_metrics_row", 20, 40),
        (3, 2, "mdp.stationary_distribution", 25, 30),
        (4, 1, "mdp.stationary_distribution", 45, 50),
    ]
    summary = tracer.summarize(spans)
    assert summary["layer_self_ns"] == {"cli": 50, "learner": 25, "metrics": 15,
                                        "oracles": 0, "mdp": 10, "features": 0, "envs": 0}
    assert sum(summary["layer_self_ns"].values()) == summary["root_ns"] == 100
    solves = summary["functions"]["mdp.stationary_distribution"]
    assert solves["calls"] == 2
    assert solves["calls_in_row"] == 1
    assert solves["p50_ns"] == 5
