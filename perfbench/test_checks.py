"""Each benchmark check accepts a well-formed output and rejects a corrupted one.

No training: outputs come from an untrained model or are written by hand.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from dynmem import evaluation as ev  # noqa: E402
from dynmem.model import ConvNetClassifier  # noqa: E402

N_EVAL = 150
TOTAL_STEPS = 243


def fraction(k):
    return k / N_EVAL


@pytest.fixture(scope="module")
def ewc_model():
    rng = np.random.default_rng(0)
    images = rng.random((12, 1, 16, 16)).astype(np.float32)
    labels = np.array([0, 1] * 6, dtype=np.uint8)
    model = ConvNetClassifier(image_size=16, random_state=0)
    model.fisher_diagonal(images, labels)
    model.snapshot_anchor()
    return model, images, labels


def test_fisher_check_accepts_the_programs_fisher(ewc_model):
    model, images, labels = ewc_model
    assert checks.fisher_errors(model, images, labels, "m") == []


@pytest.mark.parametrize("corrupt", ["bias", "negative", "nan", "anchor"])
def test_fisher_check_rejects_a_corrupted_checkpoint(ewc_model, corrupt):
    model, images, labels = ewc_model
    bad = copy.deepcopy(model)
    if corrupt == "bias":
        bad._fisher["head.bias"] = bad._fisher["head.bias"] * np.float32(1.001)
    elif corrupt == "negative":
        bad._fisher["b2.conv1.weight"][0, 0, 0, 0] = -1e-6
    elif corrupt == "nan":
        bad._fisher["head.weight"][0, 0] = np.nan
    else:
        anchor = dict(bad._anchor)
        anchor["b1.norm1.scale"] = anchor["b1.norm1.scale"] + np.float32(1e-3)
        bad._anchor = anchor
    assert checks.fisher_errors(bad, images, labels, "m")


def test_margin_check():
    assert checks.margin_errors(0.6, 0.10, "acc") == []
    assert checks.margin_errors(0.59, 0.10, "acc")
    assert checks.margin_errors(float("nan"), 0.10, "acc")


def good_summary():
    R = np.array([[150, 75, 75], [148, 75, 76], [144, 143, 85], [113, 122, 140]]) / N_EVAL
    return {"rmatrix": R.tolist(), "acc_A": float(R[3, 0]), "acc_B": float(R[3, 1]),
            "acc_C": float(R[3, 2]), "bwt": ev.bwt(R), "fwt": ev.fwt(R, R[0])}


def test_summary_check_agrees_with_the_programs_transfer_metrics():
    assert checks.summary_errors(good_summary(), N_EVAL, "s") == []


@pytest.mark.parametrize("key, value", [("bwt", 0.01), ("fwt", -0.01), ("acc_C", 0.02)])
def test_summary_check_rejects_an_altered_value(key, value):
    summary = good_summary()
    summary[key] += value
    assert checks.summary_errors(summary, N_EVAL, "s")


def test_summary_check_rejects_an_accuracy_off_the_grid():
    summary = good_summary()
    summary["rmatrix"][1][2] += 0.001
    assert checks.summary_errors(summary, N_EVAL, "s")


def good_rows():
    rows = []
    for step in range(TOTAL_STEPS + 1):
        if step:
            rows.append({"step": str(step), "task": "stream", "split": "train",
                         "metric": "loss", "value": "0.25"})
        if step % 30 == 0 or step == TOTAL_STEPS:
            rows += [{"step": str(step), "task": t, "split": "val", "metric": "accuracy",
                      "value": repr(fraction(100 + step % 50))} for t in "ABC"]
    return rows


def test_metrics_check_accepts_the_probe_cadence():
    assert checks.metrics_errors(good_rows(), TOTAL_STEPS, 30, N_EVAL, "m") == []


@pytest.mark.parametrize("corrupt", ["missing_probe", "nan_loss", "missing_loss", "off_grid"])
def test_metrics_check_rejects_a_corrupted_csv(corrupt):
    rows = good_rows()
    if corrupt == "missing_probe":
        rows = [r for r in rows if not (r["step"] == "243" and r["task"] == "B")]
    elif corrupt == "nan_loss":
        rows[5]["value"] = "nan"
    elif corrupt == "missing_loss":
        rows = [r for r in rows if not (r["step"] == "100" and r["metric"] == "loss")]
    else:
        rows[0]["value"] = "0.5001"
    assert checks.metrics_errors(rows, TOTAL_STEPS, 30, N_EVAL, "m")


def dump(items):
    header = "step\tlabel\ttask\tdistance_at_replacement\n"
    return header + "".join(f"{s}\t{label}\tA\t{d!r}\n" for s, label, d in items)


GOOD_DUMP = [(1, 0, math.nan), (3, 0, 0.25), (2, 1, math.nan), (2, 1, 0.0)]


def test_dump_check_accepts_a_full_memory():
    assert checks.memory_dump_errors(dump(GOOD_DUMP), 4, TOTAL_STEPS, "d") == []


@pytest.mark.parametrize("items", [
    GOOD_DUMP + [(5, 0, 0.1)],                            # over quota
    GOOD_DUMP[:3],                                        # under quota
    [(1, 0, math.nan), (3, 0, -0.1)] + GOOD_DUMP[2:],     # negative distance
    [(1, 0, math.nan), (3, 0, math.inf)] + GOOD_DUMP[2:],  # infinite distance
    [(0, 0, math.nan), (3, 0, 0.25)] + GOOD_DUMP[2:],     # step before the stream
    [(1, 0, math.nan), (244, 0, 0.2)] + GOOD_DUMP[2:],    # step after the stream
    [(4, 0, math.nan), (3, 0, 0.25)] + GOOD_DUMP[2:],     # unreplaced item after a replacement
])
def test_dump_check_rejects_a_corrupted_dump(items):
    assert checks.memory_dump_errors(dump(items), 4, TOTAL_STEPS, "d")


def test_identical_trees_finds_a_changed_byte_and_a_missing_file(tmp_path):
    for side in "ab":
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "sub" / "x.csv").write_bytes(b"1,2\n")
    assert checks.identical_trees(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "sub" / "x.csv").write_bytes(b"1,3\n")
    (tmp_path / "b" / "extra.txt").write_text("")
    assert len(checks.identical_trees(tmp_path / "a", tmp_path / "b")) == 2


def test_layer_metrics_take_self_time_and_ratios_from_the_spans(tmp_path):
    tracer = tracing.Tracer()
    distance = tracer.wrap("gram.distance", lambda: time.sleep(0.002))

    def insert(replace):
        if replace:
            for _ in range(3):
                distance()
        return replace

    insert = tracer.wrap("memory.insert", insert, tag_out=lambda args, replaced: int(replaced))
    step = tracer.wrap("strategies.step", lambda: [insert(r) for r in (False, True, True)],
                       tag_out=lambda args, result: 2)
    step()
    tracer.save(tmp_path / "spans.npz")
    m = tracing.layer_metrics([tmp_path / "spans.npz"])
    assert m["trace.spans"] == 1 + 3 + 6
    assert (m["memory.insert_calls"], m["memory.replaced"], m["gram.distance_calls"]) == (3, 2, 6)
    assert m["memory.distances_per_replacement"] == 3
    assert m["memory.insert_kept_ratio"] == 2 / 3
    assert m["gram.distance_s"] >= 6 * 0.002
    step_s = m["strategies.step_ms_p50"] / 1e3  # the one step's duration
    assert m["strategies.step_self_s"] == pytest.approx(step_s - m["memory.insert_s"])
    assert m["nn.conv_forward_ms.n8"] == 0 and m["model.fit_s"] == 0


def test_sliced_timing_stops_and_resumes_a_command_until_it_ends():
    import run

    busy = "import time\nwhile time.process_time() < 1.5:\n    pass\nprint('done')"
    proc = subprocess.Popen([sys.executable, "-c", busy], stdout=subprocess.PIPE,
                            start_new_session=True)
    seconds, wall = run.Runner._sliced(proc, time.perf_counter())
    out, _ = proc.communicate()
    assert proc.returncode == 0 and out.strip() == b"done"
    assert wall > 1.4 and seconds > 0
