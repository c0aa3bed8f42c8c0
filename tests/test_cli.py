"""End-to-end tests for the command-line driver on a tiny corpus."""
import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynmem
from dynmem.cli import _config_and_corpus, build_parser, main
from dynmem.data import SPLITS, load_corpus
from dynmem.experiment import ExperimentConfig, usable_cores
from dynmem.model import CHECKPOINT_MAGIC
from dynmem.validation import read_container, write_container


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus plus one trained base checkpoint, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    out = root / "out"
    rc = main(["generate", "--out", str(corpus), "--seed", "3",
               "--base-n", "24", "--cont-a", "24", "--cont-b", "16",
               "--cont-c", "24", "--eval-n", "8"])
    assert rc == 0
    rc = main(["train-base", "--corpus", str(corpus), "--out", str(out),
               "--seed", "0", "--seeds", "1", "--base-epochs", "1"])
    assert rc == 0
    return corpus, out


def run_continual(corpus, out, *extra):
    return main(["continual", "--corpus", str(corpus), "--out", str(out),
                 "--seed", "0", "--seeds", "1", "--probe-every", "5", *extra])


def test_generate_writes_manifest(workspace):
    corpus, _ = workspace
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_train_base_writes_checkpoint_and_metrics(workspace):
    _, out = workspace
    assert (out / "base_seed0.ckpt").exists()
    csv = (out / "metrics_base_seed0.csv").read_text()
    assert csv.splitlines()[0] == "step,strategy,seed,task,split,metric,value"


def test_continual_dm_outputs(workspace):
    corpus, out = workspace
    assert run_continual(corpus, out, "--strategy", "dm", "--memory", "8") == 0
    run_dir = out / "dm_M8" / "seed0"
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "memory_dump.txt").read_text().startswith("step\tlabel")
    summary = json.loads((run_dir / "summary.json").read_text())
    assert {"acc_A", "acc_B", "acc_C", "bwt", "fwt", "area_C"} <= set(summary)
    agg = json.loads((out / "dm_M8" / "summary.json").read_text())
    assert agg["aggregate"]["acc_A"]["mean"] == summary["acc_A"]


def written_files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


RERUN_STRATEGIES = ["naive", "ewc-fbn", "dm", "dm --recompute-signatures"]


def test_continual_reruns_are_byte_identical(workspace, tmp_path):
    corpus, out = workspace
    for i, strategy in enumerate(RERUN_STRATEGIES):
        runs = [tmp_path / f"s{i}" / d for d in ("r1", "r2")]
        for d in runs:
            # reuse the shared base checkpoint, write results to a fresh directory
            assert run_continual(corpus, d, "--strategy", *strategy.split(),
                                 "--base", str(out)) == 0, strategy
        first, second = written_files(runs[0]), written_files(runs[1])
        expected = {"metrics.csv", "summary.json"} | ({"memory_dump.txt"} if "dm" in strategy
                                                      else set())
        assert {p.name for p in first} == expected, strategy
        assert first == second, strategy


def test_continual_ewc_requires_fisher_checkpoint(workspace, tmp_path):
    corpus, _ = workspace
    out = tmp_path / "noewc"
    assert main(["train-base", "--corpus", str(corpus), "--out", str(out),
                 "--seed", "0", "--seeds", "1", "--base-epochs", "1",
                 "--no-ewc"]) == 0
    assert run_continual(corpus, out, "--strategy", "ewc") == 1


def test_sweep_memory_table(workspace, tmp_path):
    corpus, out = workspace
    rc = main(["sweep-memory", "--corpus", str(corpus), "--out", str(tmp_path),
               "--seed", "0", "--seeds", "1", "--probe-every", "5", "--sizes", "4", "8",
               "--base", str(out)])
    assert rc == 0
    lines = (tmp_path / "memory_sweep.csv").read_text().splitlines()
    assert lines[0] == "M,acc_A,acc_B,acc_C,acc_avg,area_C"
    assert [row.split(",")[0] for row in lines[1:]] == ["4", "8"]


def test_full_training_outputs(workspace, tmp_path):
    corpus, _ = workspace
    rc = main(["full-training", "--corpus", str(corpus), "--out", str(tmp_path),
               "--seed", "0", "--seeds", "1", "--full-epochs", "1"])
    assert rc == 0
    agg = json.loads((tmp_path / "full" / "summary.json").read_text())
    assert agg["strategy"] == "full"


def test_config_file_supplies_defaults(workspace, tmp_path):
    corpus, _ = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nbase-epochs = 1\nseeds = 1\nseed = 0\n")
    rc = main(["train-base", "--config", str(cfg), "--corpus", str(corpus),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "base_seed0.ckpt").exists()


def test_config_file_unknown_key_is_usage_error(workspace, tmp_path):
    corpus, _ = workspace
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    rc = main(["train-base", "--config", str(cfg), "--corpus", str(corpus),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_config_file_malformed_line_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_corpus_is_runtime_error(tmp_path):
    rc = main(["train-base", "--corpus", str(tmp_path / "nope"),
               "--out", str(tmp_path), "--seeds", "1"])
    assert rc == 1


def test_missing_base_checkpoint_is_runtime_error(workspace, tmp_path):
    corpus, _ = workspace
    assert run_continual(corpus, tmp_path, "--strategy", "naive") == 1


def test_old_checkpoint_version_is_runtime_error_naming_the_file(workspace, tmp_path,
                                                                 capsys):
    corpus, out = workspace
    old = tmp_path / "old"
    old.mkdir()
    blob = (out / "base_seed0.ckpt").read_bytes()
    assert blob.count(b'"version": 3') == 1
    (old / "base_seed0.ckpt").write_bytes(blob.replace(b'"version": 3', b'"version": 2'))
    capsys.readouterr()
    assert run_continual(corpus, tmp_path / "res", "--strategy", "naive",
                         "--base", str(old)) == 1
    err = capsys.readouterr().err
    assert str(old / "base_seed0.ckpt") in err and "version 2" in err


def edit_header(src, dst, edit):
    """Copy the container at `src` to `dst`, with `edit` applied to its JSON header."""
    blob = src.read_bytes()
    at = blob.index(b"\n") + 1  # the magic ends with a newline
    length = int.from_bytes(blob[at : at + 8], "little")
    header = json.loads(blob[at + 8 : at + 8 + length])
    edit(header)
    edited = json.dumps(header, sort_keys=True).encode() + b"\n"
    dst.write_bytes(blob[:at] + len(edited).to_bytes(8, "little") + edited
                    + blob[at + 8 + length :])


def drop_hyper(header):
    del header["hyper"]


def add_unknown_hyper(header):
    header["hyper"]["beta1"] = 0.9


def halve_first_channels(header):
    header["hyper"]["channels"][0] //= 2


def widen_dtype(header):
    header["hyper"]["dtype"] = "float64"  # the arrays stay float32


def no_channels(header):
    header["hyper"]["channels"] = []


def zero_first_channels(header):
    header["hyper"]["channels"] = [0, 2, 2, 2]


@pytest.mark.parametrize("edit", [drop_hyper, add_unknown_hyper, halve_first_channels,
                                  widen_dtype, no_channels, zero_first_channels])
def test_checkpoint_header_not_matching_a_model_is_runtime_error_naming_the_file(
        workspace, tmp_path, capsys, edit):
    corpus, out = workspace
    bad = tmp_path / "bad"
    bad.mkdir()
    edit_header(out / "base_seed0.ckpt", bad / "base_seed0.ckpt", edit)
    capsys.readouterr()
    assert run_continual(corpus, tmp_path / "res", "--strategy", "naive",
                         "--base", str(bad)) == 1
    err = capsys.readouterr().err
    assert str(bad / "base_seed0.ckpt") in err and "Traceback" not in err


def test_diverging_fit_is_runtime_error_naming_the_epoch(workspace, tmp_path):
    corpus, _ = workspace
    code, err, _ = cli(tmp_path / "stderr.txt", "train-base", "--corpus", corpus,
                       "--out", tmp_path, "--seed", "0", "--seeds", "1",
                       "--base-epochs", "2", "--lr", "1e30")
    assert code == 1
    assert "epoch 1" in err and "RuntimeWarning" not in err  # the error is the only report
    assert not (tmp_path / "base_seed0.ckpt").exists()


def test_unknown_strategy_is_argparse_error(workspace, tmp_path):
    corpus, _ = workspace
    with pytest.raises(SystemExit) as exc:
        run_continual(corpus, tmp_path, "--strategy", "gem")
    assert exc.value.code == 2


def exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command,flags,named", [
    pytest.param("continual", ["--config"], "--config", id="config-last"),
    pytest.param("continual", ["--config={cfg}"], "momentum", id="config-unknown-key"),
    pytest.param("train-base", ["--base-epochs", "-3"], "--base-epochs", id="base-epochs"),
    pytest.param("full-training", ["--full-epochs", "0"], "--full-epochs", id="full-epochs"),
    pytest.param("continual", ["--memory", "5"], "--memory", id="odd-memory"),
    pytest.param("sweep-memory", ["--sizes", "16", "5"], "--sizes", id="odd-sizes"),
    pytest.param("train-base", ["--lr", "nan"], "--lr", id="lr-nan"),
    pytest.param("continual", ["--stream-lr", "inf"], "--stream-lr", id="stream-lr-inf"),
    pytest.param("continual", ["--lambda", "nan"], "--lambda", id="lambda-nan"),
    pytest.param("generate", ["--ramp-fraction", "nan"], "--ramp-fraction", id="ramp-nan"),
    pytest.param("generate", ["--ramp-fraction", "2"], "--ramp-fraction", id="ramp-2"),
    pytest.param("generate", ["--ramp-fraction", "0.5"], "--ramp-fraction", id="ramp-half"),
    pytest.param("generate", ["--ramp-fraction", "-0.1"], "--ramp-fraction", id="ramp-negative"),
    pytest.param("generate", ["--cont-c", "0"], "--cont-c", id="cont-c-zero"),
    pytest.param("generate", ["--eval-n", "0"], "--eval-n", id="eval-n-zero"),
    pytest.param("generate", ["--base-n", "-5"], "--base-n", id="base-n-negative"),
    pytest.param("generate", ["--image-size", "0"], "--image-size", id="image-size-zero"),
    pytest.param("generate", ["--seed", "-1"], "--seed", id="seed-negative-generate"),
    pytest.param("train-base", ["--seed", "-1"], "--seed", id="seed-negative-train-base"),
    pytest.param("full-training", ["--seed", "-1"], "--seed", id="seed-negative-full-training"),
    pytest.param("continual", ["--seed", "-3"], "--seed", id="seed-negative-continual"),
    pytest.param("continual", ["--config={seed_cfg}"], "--seed", id="config-seed-negative"),
    pytest.param("generate", ["--config={binary_cfg}"], "binary.cfg", id="config-not-utf8"),
    pytest.param("continual", ["--stream-lr", "-0.01"], "--stream-lr", id="stream-lr-negative"),
    pytest.param("train-base", ["--lr", "0"], "--lr", id="lr-zero"),
    pytest.param("full-training", ["--lr", "-0.001"], "--lr", id="lr-negative"),
    pytest.param("continual", ["--lambda", "-1"], "--lambda", id="lambda-negative"),
    # a flag of another subcommand, which this one does not read
    pytest.param("generate", ["--seeds", "3"], "--seeds", id="unread-generate-seeds"),
    pytest.param("train-base", ["--batch", "3"], "--batch", id="unread-train-base-batch"),
    pytest.param("train-base", ["--probe-every", "3"], "--probe-every",
                 id="unread-train-base-probe-every"),
    pytest.param("continual", ["--lr", "3"], "--lr", id="unread-continual-lr"),
    pytest.param("continual", ["--base-epochs", "3"], "--base-epochs",
                 id="unread-continual-base-epochs"),
    pytest.param("sweep-memory", ["--full-epochs", "3"], "--full-epochs",
                 id="unread-sweep-memory-full-epochs"),
    pytest.param("full-training", ["--stream-lr", "3"], "--stream-lr",
                 id="unread-full-training-stream-lr"),
])
def test_bad_flag_is_usage_error_naming_the_flag(tmp_path, capsys, command, flags, named):
    cfg, seed_cfg = tmp_path / "bad.cfg", tmp_path / "seed.cfg"
    binary_cfg = tmp_path / "binary.cfg"
    cfg.write_text("seeds = 1\nmomentum = 0.9\n")
    seed_cfg.write_text("seed = -1\n")
    binary_cfg.write_bytes(b"\xff\xfe\x00bad")
    argv = [command, "--out", str(tmp_path / "out")]
    if command != "generate":
        argv += ["--corpus", str(tmp_path / "corpus")]
    if command == "continual":
        argv += ["--strategy", "dm"]
    capsys.readouterr()
    assert exit_code(argv + [f.format(cfg=cfg, seed_cfg=seed_cfg, binary_cfg=binary_cfg)
                             for f in flags]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    if "usage:" in err:  # argparse's errors give the subcommand's usage, not dynmem's
        assert f"usage: dynmem {command} " in err


def test_zero_penalty_weight_is_a_valid_flag(workspace):
    # --lambda 0 turns the EWC penalty off
    corpus, _ = workspace
    args = build_parser().parse_args(["continual", "--corpus", str(corpus), "--strategy", "ewc",
                                      "--lambda", "0"])
    assert _config_and_corpus(args)[0].ewc_lambda == 0.0


def test_continual_without_setting_flags_runs_the_default_config(workspace):
    corpus, _ = workspace  # of the default image size
    args = build_parser().parse_args(["continual", "--corpus", str(corpus), "--seed", "7",
                                      "--strategy", "dm"])
    cfg, _ = _config_and_corpus(args)
    assert cfg == ExperimentConfig(seed=7)


@pytest.mark.parametrize("command, epochs", [("train-base", "--base-epochs"),
                                             ("full-training", "--full-epochs")])
def test_training_batch_smaller_than_the_input_batch_default_runs(workspace, tmp_path,
                                                                  command, epochs):
    # neither command reads the input batch B, so T below its default is no error
    corpus, _ = workspace
    assert main([command, "--corpus", str(corpus), "--out", str(tmp_path), "--seed", "0",
                 "--seeds", "1", epochs, "1", "--train-batch", "4"]) == 0


def test_input_batch_larger_than_the_training_batch_is_runtime_error(workspace, tmp_path,
                                                                      capsys):
    corpus, out = workspace
    capsys.readouterr()
    assert run_continual(corpus, tmp_path / "res", "--strategy", "naive", "--base", str(out),
                         "--batch", "16") == 1
    err = capsys.readouterr().err
    assert "--batch (16)" in err and "--train-batch (8)" in err and "Traceback" not in err
    assert not (tmp_path / "res").exists()


def test_config_file_values_are_typed_and_explicit_flags_win(workspace, tmp_path):
    corpus, out = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text("memory = 8\nseed = 0\nseeds = 1\nprobe_every = 5\n"
                   "recompute-signatures = true\nstream-lr = 0.9\n")
    by_file = tmp_path / "by_file"
    assert main(["continual", f"--config={cfg}", "--corpus", str(corpus), "--out", str(by_file),
                 "--strategy", "dm", "--base", str(out), "--stream-lr", "5e-4"]) == 0
    by_flags = tmp_path / "by_flags"
    assert run_continual(corpus, by_flags, "--strategy", "dm", "--memory", "8",
                         "--recompute-signatures", "--base", str(out)) == 0
    assert written_files(by_file) == written_files(by_flags)


@pytest.mark.parametrize("target", ["base_seed0.ckpt", "continuous.dmc"])
@pytest.mark.parametrize("where", ["header", "arrays", "header-length"])
def test_truncated_file_is_runtime_error_naming_the_file(workspace, tmp_path, capsys,
                                                          target, where):
    """A file cut short in its header or its arrays, or whose 8-byte header
    length claims 10**15 bytes, which is compared with the file before a read."""
    corpus, out = workspace
    bad_corpus, bad_base = tmp_path / "corpus", tmp_path / "base"
    shutil.copytree(corpus, bad_corpus)
    bad_base.mkdir()
    shutil.copy(out / "base_seed0.ckpt", bad_base)
    path = (bad_base if target.endswith(".ckpt") else bad_corpus) / target
    blob = path.read_bytes()
    at = blob.index(b"\n") + 1  # the magic ends with a newline; the length follows it
    path.write_bytes({"header": blob[: blob.index(b"{") + 20],
                      "arrays": blob[:-7],
                      "header-length": blob[:at] + (10**15).to_bytes(8, "little")
                      + blob[at + 8 :]}[where])
    capsys.readouterr()
    assert run_continual(bad_corpus, tmp_path / "res", "--strategy", "naive",
                         "--base", str(bad_base)) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "truncated" in err
    if where == "header-length":
        assert err == (f"error: {path} is truncated: header needs {10**15} bytes, "
                       f"{len(blob) - at - 8} remain\n")


@pytest.mark.parametrize("split", ["continuous", "validation"])
def test_split_damaged_after_loading_is_runtime_error_naming_the_file(
        workspace, tmp_path, capsys, monkeypatch, split):
    """A NaN written into the split's last image once it is loaded: the step
    that reads it (continuous) or the first probe (validation, in the forked
    evaluator where a core is spare) stops the run with exit 1 naming the
    file, not with a divergence blamed on --stream-lr."""
    corpus, out = workspace
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    path = bad / f"{split}.dmc"

    def load_then_damage(*args):
        loaded = load_corpus(*args)
        with open(path, "r+b") as f:
            f.seek(-4, os.SEEK_END)
            f.write(np.float32(np.nan).tobytes())
        return loaded

    monkeypatch.setattr("dynmem.cli.load_corpus", load_then_damage)
    capsys.readouterr()
    assert run_continual(bad, tmp_path / "res", "--strategy", "naive", "--base", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} holds pixels outside [0.0, 1.0]")
    assert not (tmp_path / "res").exists()


# the corpus splits each subcommand reads, and the flags that make it quick
READS = {
    "train-base": (("base", "validation"), ["--base-epochs", "1"]),
    "continual": (("continuous", "validation", "test"), ["--strategy", "naive"]),
    "sweep-memory": (("continuous", "validation", "test"), ["--sizes", "2"]),
    "full-training": (("base", "continuous", "test"), ["--full-epochs", "1"]),
}


@pytest.mark.parametrize("command", READS)
def test_command_reads_only_its_own_splits(workspace, tmp_path, capsys, command):
    """A command runs with every split it does not read deleted; deleting one
    it reads is a runtime error naming the file."""
    corpus, out = workspace
    splits, flags = READS[command]
    partial = tmp_path / "corpus"
    shutil.copytree(corpus, partial)
    for split in set(SPLITS) - set(splits):
        (partial / f"{split}.dmc").unlink()
    argv = [command, "--corpus", str(partial), "--seed", "0", "--seeds", "1", *flags]
    if command in ("continual", "sweep-memory"):
        argv += ["--base", str(out), "--probe-every", "5"]
    assert main([*argv, "--out", str(tmp_path / "all")]) == 0
    for split in splits:
        path = partial / f"{split}.dmc"
        blob = path.read_bytes()
        path.unlink()
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / split)]) == 1
        assert str(path) in capsys.readouterr().err
        path.write_bytes(blob)


@pytest.mark.parametrize("cont_c, seeds, batch", [
    pytest.param("1", "1", "8", id="1"),
    pytest.param("1", "2", "8", id="2"),
    # task C is long enough at batch 8; at 64, B's checkpoint falls in the only step
    pytest.param("24", "1", "64", id="batch"),
])
def test_task_c_too_short_for_its_area_is_runtime_error(tmp_path, capsys, cont_c, seeds, batch):
    # at --seeds 2 each seed runs, and fails, in a worker when two cores are usable
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["generate", "--out", str(corpus), "--base-n", "40", "--cont-a", "40",
                 "--cont-b", "20", "--cont-c", cont_c, "--eval-n", "10"]) == 0
    assert main(["train-base", "--corpus", str(corpus), "--out", str(out),
                 "--seeds", seeds, "--base-epochs", "1"]) == 0
    capsys.readouterr()
    assert main(["continual", "--corpus", str(corpus), "--out", str(out), "--seeds", seeds,
                 "--strategy", "dm", "--batch", batch, "--train-batch", batch]) == 1
    err = capsys.readouterr().err
    assert "task C's segment ends before any validation probe after task B's checkpoint" in err
    assert "--cont-c" in err and f"--batch ({batch})" in err and "Traceback" not in err
    assert not (out / "dm_M32").exists()


@pytest.mark.parametrize("command, size", [("train-base", "32"), ("full-training", "200")])
def test_training_batch_larger_than_the_training_set_is_runtime_error(workspace, tmp_path,
                                                                      capsys, command, size):
    # the workspace corpus holds 24 base images and 88 base and continuous ones
    corpus, _ = workspace
    out = tmp_path / "out"
    epochs = "--base-epochs" if command == "train-base" else "--full-epochs"
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), "--out", str(out), "--seed", "0",
                 "--seeds", "1", epochs, "1", "--train-batch", size]) == 1
    err = capsys.readouterr().err
    assert f"batch of {size}" in err and "--train-batch" in err
    assert not out.exists() or not any(out.iterdir())  # no untrained checkpoint or result


def test_checkpoint_of_another_image_size_is_runtime_error_naming_both(workspace, tmp_path,
                                                                       capsys):
    corpus, _ = workspace
    small, base = tmp_path / "small", tmp_path / "base"
    assert main(["generate", "--out", str(small), "--image-size", "16", "--base-n", "24",
                 "--cont-a", "8", "--cont-b", "8", "--cont-c", "8", "--eval-n", "4"]) == 0
    assert main(["train-base", "--corpus", str(small), "--out", str(base), "--seed", "0",
                 "--seeds", "1", "--base-epochs", "1"]) == 0
    capsys.readouterr()
    assert run_continual(corpus, tmp_path / "res", "--strategy", "naive",
                         "--base", str(base)) == 1
    err = capsys.readouterr().err
    assert str(base / "base_seed0.ckpt") in err and str(corpus) in err
    assert "16-pixel" in err and "32-pixel" in err


def shrink_a_running_mean(arrays):
    arrays["b1.norm1.running_mean"] = arrays["b1.norm1.running_mean"][:1]  # would broadcast


def drop_the_fisher_of_the_head_bias(arrays):
    del arrays["fisher.head.bias"]


def nan_head_bias(arrays):
    arrays["head.bias"][0] = np.nan


def inf_in_the_anchor(arrays):
    arrays["anchor.b2.conv1.weight"][0, 0, 0, 0] = np.inf


def add_an_array(arrays):
    arrays["b5.conv1.weight"] = np.zeros(3, np.float32)


@pytest.mark.parametrize("edit, strategy, named", [
    (shrink_a_running_mean, "naive", "b1.norm1.running_mean"),
    (drop_the_fisher_of_the_head_bias, "ewc", "fisher.head.bias"),
    (nan_head_bias, "naive", "head.bias"),
    (inf_in_the_anchor, "ewc", "anchor.b2.conv1.weight"),
    (add_an_array, "naive", "b5.conv1.weight"),
])
def test_checkpoint_not_holding_exactly_its_model_with_finite_values_is_runtime_error(
        workspace, tmp_path, capsys, edit, strategy, named):
    """Each array is checked at load: a shape that would broadcast, a missing
    Fisher entry and a non-finite value all end before the first step."""
    corpus, out = workspace
    path = tmp_path / "bad" / "base_seed0.ckpt"
    path.parent.mkdir()
    header, arrays = read_container(
        out / "base_seed0.ckpt", CHECKPOINT_MAGIC, "model checkpoint",
        lambda h: [(a["name"], a["shape"], a["dtype"]) for a in h["arrays"]])
    edit(arrays)
    names = sorted(arrays)
    header["arrays"] = [{"name": n, "shape": list(arrays[n].shape), "dtype": arrays[n].dtype.name}
                        for n in names]
    write_container(path, CHECKPOINT_MAGIC, header, [arrays[n] for n in names])
    capsys.readouterr()
    assert run_continual(corpus, tmp_path / "res", "--strategy", strategy,
                         "--base", str(path.parent)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} ") and f" {named}" in err and err.count("\n") == 1
    assert not (tmp_path / "res").exists()


def test_split_of_a_corpus_of_another_seed_is_runtime_error_naming_both_seeds(
        workspace, tmp_path, capsys):
    """The config hash leaves the seed out, so only the seed tells the splits apart."""
    corpus, _ = workspace
    other, mixed = tmp_path / "other", tmp_path / "mixed"
    assert main(["generate", "--out", str(other), "--seed", "4", "--base-n", "24",
                 "--cont-a", "24", "--cont-b", "16", "--cont-c", "24", "--eval-n", "8"]) == 0
    shutil.copytree(corpus, mixed)
    shutil.copy(other / "base.dmc", mixed / "base.dmc")
    capsys.readouterr()
    assert main(["train-base", "--corpus", str(mixed), "--out", str(tmp_path / "out"),
                 "--seeds", "1", "--base-epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {mixed / 'base.dmc'} was written with seed 4, but "
                   f"{mixed / 'manifest.json'} has seed 3\n")


def test_split_header_claiming_more_than_its_file_holds_is_refused_before_a_read(
        workspace, tmp_path, capsys):
    """A count of 10**12 is compared with the file's size; no array is allocated."""
    corpus, _ = workspace
    bad = tmp_path / "corpus"
    shutil.copytree(corpus, bad)
    path = bad / "base.dmc"
    edit_header(corpus / "base.dmc", path, lambda header: header.update(count=10**12))
    capsys.readouterr()
    assert main(["train-base", "--corpus", str(bad), "--out", str(tmp_path / "out"),
                 "--seeds", "1", "--base-epochs", "1"]) == 1
    need, remain = 10**12 * (8 + 1 + 1 + 4 * 32 * 32), 24 * (8 + 1 + 1 + 4 * 32 * 32)
    assert capsys.readouterr().err == (f"error: {path} is truncated: its arrays need {need} "
                                       f"bytes, {remain} remain\n")


def test_image_size_too_small_for_the_sprite_is_runtime_error_naming_the_minimum(tmp_path,
                                                                                 capsys):
    out = tmp_path / "corpus"
    capsys.readouterr()
    assert main(["generate", "--out", str(out), "--image-size", "14"]) == 1
    err = capsys.readouterr().err
    assert "--image-size 14" in err and "smallest that fits is 15" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("continual", ["--strategy", "dm", "--memory", str(10**15)], f"--memory {10**15}"),
    ("sweep-memory", ["--sizes", "16", str(10**15)], f"--sizes {10**15}"),
])
def test_memory_larger_than_physical_memory_is_refused_before_the_checkpoint(
        workspace, tmp_path, capsys, command, flags, named):
    # 10**15 stored 32-pixel images need 4.1e18 bytes; --base holds no checkpoint
    corpus, _ = workspace
    base = tmp_path / "empty"
    base.mkdir()
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), "--out", str(tmp_path / "out"),
                 "--base", str(base), "--seeds", "1", *flags]) == 1
    err = capsys.readouterr().err
    assert named in err and "physical memory" in err
    assert "checkpoint" not in err and "Traceback" not in err


def test_running_out_of_memory_is_runtime_error_naming_the_command(tmp_path, capsys,
                                                                   monkeypatch):
    def out_of_memory(args):
        raise MemoryError("Unable to allocate 87.3 TiB")

    monkeypatch.setattr("dynmem.cli.cmd_generate", out_of_memory)
    capsys.readouterr()
    assert main(["generate", "--out", str(tmp_path / "corpus")]) == 1
    err = capsys.readouterr().err
    assert err == "error: generate ran out of memory: Unable to allocate 87.3 TiB\n"


def test_no_command_imports_scipy(tmp_path):
    """The program needs numpy alone: no command, `generate` included, loads
    any scipy module (scipy is a test oracle only)."""
    script = (
        "import sys\n"
        "from dynmem.cli import main\n"
        f"root = {str(tmp_path)!r}\n"
        "run = ['--corpus', root + '/corpus', '--out', root + '/runs', '--seeds', '1']\n"
        "for argv in (['generate', '--out', root + '/corpus', '--image-size', '16',\n"
        "              '--base-n', '8', '--cont-a', '8', '--cont-b', '8', '--cont-c', '8',\n"
        "              '--eval-n', '4'],\n"
        "             ['train-base', *run, '--base-epochs', '1'],\n"
        "             ['continual', *run, '--strategy', 'ewc-fbn'],\n"
        "             ['continual', *run, '--strategy', 'dm', '--memory', '4'],\n"
        "             ['sweep-memory', *run, '--sizes', '4'],\n"
        "             ['full-training', *run, '--full-epochs', '1']):\n"
        "    print(argv[0], main(argv), sorted(m for m in sys.modules\n"
        "                                      if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(dynmem.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{c} 0 []" for c in (
        "generate", "train-base", "continual", "continual", "sweep-memory", "full-training")]
    assert (tmp_path / "corpus" / "manifest.json").exists()


@pytest.mark.skipif(not hasattr(os, "wait4") or sys.platform != "linux",
                    reason="page-fault counts of a child process are read through wait4")
def test_training_steps_fault_in_no_fresh_pages(tmp_path):
    """Each step's column matrices reuse heap memory. The largest, b1.conv2's
    (72 x 8*16*16 float64 at 32 pixels, 1.18 MB), would fault in 288 pages
    each step if it were mapped afresh, although every corpus file read is
    smaller than it: 16 more steps of base training must fault in fewer pages
    than four such matrices, a quarter of one fresh matrix per step."""
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--base-n", "64", "--cont-a", "8",
                 "--cont-b", "8", "--cont-c", "8", "--eval-n", "4"]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(dynmem.__file__).parents[1]))

    def faults(epochs):  # minor page faults of one train-base run of 8 steps per epoch
        proc = subprocess.Popen([sys.executable, "-m", "dynmem.cli", "train-base", "--corpus",
                                 str(corpus), "--out", str(tmp_path / f"e{epochs}"), "--seeds",
                                 "1", "--base-epochs", str(epochs), "--no-ewc"],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        return usage.ru_minflt

    # b1.conv2: C_in * k * k = 72 rows, one column per output pixel of an 8-image block
    largest_matrix = 72 * (8 * 16 * 16) * 8 // 4096  # 288 pages of float64
    assert faults(3) - faults(1) < 4 * largest_matrix  # 1,152 pages


def cli(log, *args, **popen):
    """`dynmem` run in a subprocess that imports this checkout's package; its exit
    code, once the command itself has exited, and what it wrote to stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(dynmem.__file__).parents[1]))
    with open(log, "w") as stderr:
        # stderr goes to a file: a process left behind would hold a pipe open
        proc = subprocess.Popen([sys.executable, "-m", "dynmem.cli", *map(str, args)],
                                env=env, stderr=stderr, **popen)
        code = proc.wait(timeout=300)
    return code, Path(log).read_text(), proc.pid


def assert_no_process_left(pid):
    """Nothing is left in the process group that `pid` led; kill whatever is."""
    try:
        with pytest.raises(ProcessLookupError):
            os.killpg(pid, 0)
    finally:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def differing_files(a, b):
    """Relative paths that are in only one tree or differ byte for byte."""
    names = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    _match, mismatch, errors = filecmp.cmpfiles(a, b, sorted(map(str, names)), shallow=False)
    return mismatch + errors


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores to run seeds in parallel")
def test_seed_loops_write_the_same_bytes_on_one_core_and_on_all(workspace, tmp_path):
    """On all cores, the seed workers and the evaluator, forked with the
    command's split descriptors, read the same files at once."""
    corpus, _ = workspace
    trees = {"one": tmp_path / "one", "all": tmp_path / "all"}
    for name, out in trees.items():
        pin = {"preexec_fn": lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})} \
            if name == "one" else {}
        common = ["--corpus", corpus, "--out", out, "--seed", "0", "--seeds", "2"]
        # one seed evaluates in a forked evaluator where a core is spare
        one_seed = ["--corpus", corpus, "--out", out / "one_seed", "--base", out,
                    "--seed", "0", "--seeds", "1", "--probe-every", "5"]
        for argv in (["train-base", *common, "--base-epochs", "1"],
                     ["continual", *common, "--probe-every", "5", "--strategy", "dm",
                      "--memory", "16"],
                     ["sweep-memory", *common, "--probe-every", "5", "--sizes", "4", "8"],
                     ["full-training", *common, "--full-epochs", "1"],
                     ["continual", *one_seed, "--strategy", "dm", "--memory", "16",
                      "--recompute-signatures"],
                     ["continual", *one_seed, "--strategy", "ewc-fbn"],
                     ["sweep-memory", *one_seed, "--sizes", "4", "8"]):
            code, err, _ = cli(tmp_path / "stderr.txt", *argv, **pin)
            assert code == 0, (name, argv[0], err)
    assert sorted(p.parent.parent.name for p in trees["all"].rglob("seed1/summary.json")) \
        == ["dm_M16", "dm_M4", "dm_M8", "full"]
    one_seed_runs = trees["all"].glob("one_seed/*/seed0/summary.json")
    assert sorted(p.parent.parent.name for p in one_seed_runs) \
        == ["dm_M16", "dm_M4", "dm_M8", "ewc-fbn"]
    assert differing_files(trees["one"], trees["all"]) == []


def test_failing_seed_in_a_worker_exits_1_and_leaves_no_process(workspace, tmp_path):
    corpus, out = workspace
    base = tmp_path / "base"
    base.mkdir()
    shutil.copy(out / "base_seed0.ckpt", base)  # seed 1 has no checkpoint
    code, err, pid = cli(tmp_path / "stderr.txt", "continual", "--corpus", corpus,
                         "--out", tmp_path / "res", "--base", base, "--seed", "0",
                         "--seeds", "2", "--probe-every", "5", "--strategy", "naive",
                         start_new_session=True)
    assert_no_process_left(pid)
    assert code == 1, err
    assert str(base / "base_seed1.ckpt") in err and "Traceback" not in err
    assert (tmp_path / "res" / "naive" / "seed0" / "summary.json").exists()


@pytest.mark.parametrize("flags, named", [
    (["--strategy", "naive", "--stream-lr", "1e30"], ["--stream-lr"]),
    (["--strategy", "ewc", "--lambda", "1e300"], ["--stream-lr", "--lambda"]),
    # NaN signatures reach the memory's replacement search before the loss is checked
    (["--strategy", "dm", "--memory", "4", "--stream-lr", "1e30"], ["--stream-lr"]),
])
def test_diverging_stream_exits_1_naming_step_and_flags(workspace, tmp_path, flags, named):
    # one seed: where a core is spare, a forked evaluator is running when the loss turns NaN
    corpus, out = workspace
    code, err, pid = cli(tmp_path / "stderr.txt", "continual", "--corpus", corpus,
                         "--out", tmp_path / "res", "--base", out, "--seed", "0",
                         "--seeds", "1", "--probe-every", "5", *flags, start_new_session=True)
    assert_no_process_left(pid)
    assert code == 1, err
    assert "diverged" in err and "at step" in err and f"({flags[1]})" in err  # the strategy
    assert all(flag in err for flag in named) and "Traceback" not in err
    assert "RuntimeWarning" not in err  # the error is the only report
    assert not (tmp_path / "res").exists()  # no results computed from a NaN model
