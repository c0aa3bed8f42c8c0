"""perfbench's tracer against the package: a traced train-base and a traced
dm run still report the per-layer figures the benchmark reads. The tracer
wraps methods by name (ROADMAP: coupling), so a rename that it does not
follow fails here and not only in a benchmark run."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("tracing", TOOL)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def run(*args, spans=None):
    """`dynmem ARGS` in a subprocess, traced into `spans` when given."""
    cmd = [sys.executable, *([str(TOOL), str(spans)] if spans else ["-m", "dynmem.cli"])]
    proc = subprocess.run([*cmd, *map(str, args)], capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    corpus, out = root / "corpus", root / "out"
    run("generate", "--out", corpus, "--image-size", "16", "--base-n", "16", "--cont-a", "16",
        "--cont-b", "16", "--cont-c", "32", "--eval-n", "8")
    common = ["--corpus", corpus, "--out", out, "--seeds", "1"]
    run("train-base", *common, "--base-epochs", "1", spans=root / "base.npz")
    run("continual", *common, "--strategy", "dm", "--memory", "4", "--probe-every", "2",
        "--recompute-signatures", spans=root / "dm.npz")
    return {name: tracing.layer_metrics([root / f"{name}.npz"]) for name in ("base", "dm")}


@pytest.mark.parametrize("run_name, metric", [
    ("base", "nn.conv_backward_s"),
    ("base", "nn.norm_backward_s"),
    ("base", "model.fisher_diagonal_s"),
    ("dm", "nn.conv_backward_s"),
    ("dm", "nn.norm_backward_s"),
    ("dm", "memory.insert_calls"),
    ("dm", "memory.refresh_s"),
])
def test_traced_run_reports_a_nonzero_figure(traced, run_name, metric):
    assert traced[run_name][metric] > 0


def test_traced_dm_run_counts_each_sample_insert(traced):
    """The memory stores a batch at a time, but the tracer's memory figures
    still count single samples: one `insert` span per sample, tagged when it
    replaced, and the step's tag counting the samples still stored."""
    dm = traced["dm"]
    assert dm["memory.insert_calls"] == 16 + 16 + 32  # the stream: --cont-a, --cont-b, --cont-c
    assert dm["memory.replaced"] > 0 and dm["gram.distance_calls"] > 0
    assert 0 < dm["memory.insert_kept_ratio"] <= 1
