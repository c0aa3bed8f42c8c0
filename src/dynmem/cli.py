"""Command-line experiment driver.

Subcommands: generate, train-base, continual, sweep-memory, full-training.
Exit codes: 0 success, 2 usage error, 1 runtime error. All diagnostics go to
stderr; all data goes to files under --out.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import evaluation as ev
from .data import CorpusConfig, TASKS, build_corpus, load_corpus, save_corpus
from .experiment import (ExperimentConfig, map_seeds, run_base_training, run_continual,
                         run_full_training)
from .model import ConvNetClassifier
from .validation import ConfigError, check_fits

DEFAULT_SWEEP_SIZES = (16, 32, 64, 80, 128, 160)


def _read_config_file(path):
    """Flat `key = value` config file as flag tokens: each key is a flag of
    the subcommand without its dashes, `key = true` / `key = false` sets or
    omits a bare flag, and a value of several words gives several arguments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() != "false":
            tokens += [flag, *value.split()]
    return tokens


def _checked(convert, valid, what):
    """argparse type: convert, then reject values that are not `what`."""
    def parse(text):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__
    return parse


COUNT = _checked(int, lambda v: v >= 1, "a positive integer")
SEED = _checked(int, lambda v: v >= 0, "a non-negative integer")
MEMORY_SIZE = _checked(int, lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2")
RATE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
WEIGHT = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
RAMP_FRACTION = _checked(float, lambda v: 0.0 <= v < 0.5, "a finite number in [0, 0.5)")

# flag: (the ExperimentConfig field it sets, type, help); each default is the field's
SETTINGS = {
    "--seeds": ("n_seeds", COUNT, "number of seeded repetitions"),
    "--batch": ("input_batch_size", COUNT, "input-mini-batch size B"),
    "--train-batch": ("train_batch_size", COUNT, "training-mini-batch size T"),
    "--lr": ("learning_rate", RATE, "learning rate for base and full training"),
    "--stream-lr": ("stream_learning_rate", RATE, "learning rate for the stream phase"),
    "--base-epochs": ("base_epochs", COUNT, "base training epochs"),
    "--full-epochs": ("full_epochs", COUNT, "full training epochs"),
    "--probe-every": ("probe_every", COUNT, "steps between validation probes"),
    "--lambda": ("ewc_lambda", WEIGHT, "EWC penalty weight"),
    "--memory": ("memory_size", MEMORY_SIZE, "memory size M"),
}
STREAM_SETTINGS = ("--batch", "--train-batch", "--stream-lr", "--probe-every")
STREAM_SPLITS = ("continuous", "validation", "test")  # the stream, its probes, the R-matrix


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file (flags override)")
    p.add_argument("--seed", type=SEED, default=ExperimentConfig.seed, help="first seed")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _add_corpus_flags(p):
    default = CorpusConfig()
    p.add_argument("--image-size", type=COUNT, default=default.image_size)
    p.add_argument("--base-n", type=COUNT, default=default.base_count,
                   help="base split size (task A)")
    for flag, count in zip(("--cont-a", "--cont-b", "--cont-c"), default.continuous_counts):
        p.add_argument(flag, type=COUNT, default=count)
    p.add_argument("--eval-n", type=COUNT, default=default.eval_count,
                   help="validation/test size per task")
    p.add_argument("--ramp-fraction", type=RAMP_FRACTION, default=default.ramp_fraction,
                   help="share of the shorter adjacent segment carved into each "
                        "side of a transition ramp; 0 is an abrupt shift")


def _add_run_parser(sub, name, run, help, splits, settings):
    """The subcommand `name`, which `run` runs on the named splits of a corpus:
    the common flags, --corpus, --seeds and the given setting flags. A setting
    flag not given is left out of the parsed args, so its ExperimentConfig
    field keeps its default."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run, splits=splits)
    _add_common(p)
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    for flag in ("--seeds", *settings):
        dest, kind, text = SETTINGS[flag]
        p.add_argument(flag, dest=dest, type=kind, default=argparse.SUPPRESS,
                       help=f"{text} (default {getattr(ExperimentConfig, dest)})")
    return p


def build_parser():
    parser = argparse.ArgumentParser(prog="dynmem",
                                     description="Continual-learning experiments with a "
                                                 "gram-distance dynamic rehearsal memory.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for main's usage errors

    p = sub.add_parser("generate", help="generate the synthetic corpus")
    p.set_defaults(run=cmd_generate)
    _add_common(p)
    _add_corpus_flags(p)

    p = _add_run_parser(sub, "train-base", cmd_train_base,
                        "train the base model on task A (per seed)", ("base", "validation"),
                        ("--train-batch", "--lr", "--base-epochs"))
    p.add_argument("--no-ewc", action="store_true",
                   help="skip Fisher/anchor computation in the checkpoint")

    p = _add_run_parser(sub, "continual", cmd_continual,
                        "run a continual strategy over the stream", STREAM_SPLITS,
                        (*STREAM_SETTINGS, "--lambda", "--memory"))
    p.add_argument("--strategy", required=True, choices=("naive", "ewc", "ewc-fbn", "dm"))
    p.add_argument("--recompute-signatures", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--base", type=Path, help="base checkpoint directory (default: --out)")

    p = _add_run_parser(sub, "sweep-memory", cmd_sweep_memory,
                        "run the dm strategy across memory sizes", STREAM_SPLITS,
                        STREAM_SETTINGS)
    p.add_argument("--sizes", type=MEMORY_SIZE, nargs="+", default=list(DEFAULT_SWEEP_SIZES))
    p.add_argument("--base", type=Path, help="base checkpoint directory (default: --out)")

    _add_run_parser(sub, "full-training", cmd_full_training,
                    "epoch-based upper bound on all data", ("base", "continuous", "test"),
                    ("--train-batch", "--lr", "--full-epochs"))
    return parser


def _config_and_corpus(args):
    """The splits of the corpus at --corpus that the subcommand reads, and the
    ExperimentConfig at its image size with the setting flags given; the
    settings not given keep their defaults."""
    corpus = load_corpus(args.corpus, args.splits)
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if hasattr(args, f.name)}
    return ExperimentConfig(**given, image_size=corpus.config.image_size), corpus


def _write_rows(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(ev.rows_to_csv(rows).encode())


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _base_checkpoint(args, corpus, seed):
    path = (args.base or args.out) / f"base_seed{seed}.ckpt"
    if not path.exists():
        raise ConfigError(f"no base checkpoint at {path}; run train-base first")
    model = ConvNetClassifier.load(path)
    if model.image_size != corpus.config.image_size:
        raise ConfigError(f"{path} was trained on {model.image_size}-pixel images, but the "
                          f"corpus at {args.corpus} has {corpus.config.image_size}-pixel "
                          f"images; rerun train-base on that corpus")
    return model


def _check_memory_fits(flag, sizes, image_size):
    """Refuse, before any checkpoint is loaded, a memory whose float32 images
    alone exceed physical memory."""
    for size in sizes:
        check_fits(size * image_size ** 2 * 4,
                   f"the {image_size}-pixel images that {flag} {size} stores")


def cmd_generate(args):
    cfg = CorpusConfig(image_size=args.image_size, base_count=args.base_n,
                       continuous_counts=(args.cont_a, args.cont_b, args.cont_c),
                       eval_count=args.eval_n, ramp_fraction=args.ramp_fraction)
    corpus = build_corpus(cfg, seed=args.seed)
    save_corpus(corpus, args.out)
    print(f"corpus written to {args.out}", file=sys.stderr)
    return 0


def cmd_train_base(args):
    cfg, corpus = _config_and_corpus(args)
    args.out.mkdir(parents=True, exist_ok=True)
    train = partial(run_base_training, corpus, cfg, with_ewc=not args.no_ewc)
    for (model, rows), seed in zip(map_seeds(train, cfg.seeds()), cfg.seeds()):
        model.save(args.out / f"base_seed{seed}.ckpt",
                   seed_provenance={"seed": seed, "corpus_seed": corpus.seed})
        _write_rows(args.out / f"metrics_base_seed{seed}.csv", rows)
        final_acc = rows[-len(TASKS)]["value"]
        print(f"seed {seed}: task-A val accuracy {final_acc:.3f}", file=sys.stderr)
    return 0


def _continual_run(args, cfg, corpus, strategy, seed):
    return run_continual(corpus, _base_checkpoint(args, corpus, seed), strategy, cfg, seed)


def _continual_runs(args, cfg, corpus, strategy):
    out_dir = args.out / (f"dm_M{cfg.memory_size}" if strategy == "dm" else strategy)
    summaries = []
    for result in map_seeds(partial(_continual_run, args, cfg, corpus, strategy), cfg.seeds()):
        seed = result.summary["seed"]
        run_dir = out_dir / f"seed{seed}"
        _write_rows(run_dir / "metrics.csv", result.rows)
        _write_json(run_dir / "summary.json", result.summary)
        if result.memory_dump is not None:
            (run_dir / "memory_dump.txt").write_text(result.memory_dump)
        summaries.append(result.summary)
        print(f"{strategy} seed {seed}: accA={result.summary['acc_A']:.3f} "
              f"bwt={result.summary['bwt']:.3f}", file=sys.stderr)
    agg = ev.aggregate_summaries(summaries, ("acc_A", "acc_B", "acc_C", "bwt", "fwt", "area_C"))
    _write_json(out_dir / "summary.json",
                {"strategy": strategy, "memory_size": cfg.memory_size,
                 "seeds": cfg.seeds(), "aggregate": agg})
    return agg


def cmd_continual(args):
    cfg, corpus = _config_and_corpus(args)
    if args.strategy == "dm":
        _check_memory_fits("--memory", [cfg.memory_size], cfg.image_size)
    _continual_runs(args, cfg, corpus, args.strategy)
    return 0


def cmd_sweep_memory(args):
    cfg, corpus = _config_and_corpus(args)
    _check_memory_fits("--sizes", args.sizes, cfg.image_size)
    lines = ["M,acc_A,acc_B,acc_C,acc_avg,area_C"]
    for size in args.sizes:
        cfg.memory_size = size
        agg = _continual_runs(args, cfg, corpus, "dm")
        accs = [agg[f"acc_{t}"]["mean"] for t in TASKS]
        row = (size, *accs, float(np.mean(accs)), agg["area_C"]["mean"])
        lines.append(",".join(str(v) for v in row))
    (args.out / "memory_sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_full_training(args):
    cfg, corpus = _config_and_corpus(args)
    summaries = []
    for result in map_seeds(partial(run_full_training, corpus, cfg), cfg.seeds()):
        run_dir = args.out / "full" / f"seed{result.summary['seed']}"
        _write_rows(run_dir / "metrics.csv", result.rows)
        _write_json(run_dir / "summary.json", result.summary)
        summaries.append(result.summary)
    agg = ev.aggregate_summaries(summaries, ("acc_A", "acc_B", "acc_C"))
    _write_json(args.out / "full" / "summary.json",
                {"strategy": "full", "seeds": cfg.seeds(), "aggregate": agg})
    return 0


def _keep_large_temporaries_on_the_heap():
    """Set glibc malloc's mmap threshold to 32 MiB, its ceiling on 64-bit
    systems, and its trim threshold to twice that. Each training step's
    float64 column matrices (up to 1.18 MB each at the default sizes) then
    reuse heap memory. glibc raises its own threshold only after a mapped
    block is freed, so they were mapped and faulted in afresh on every step
    unless the command had read a large corpus file. Without mallopt,
    nothing changes."""
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None):
    _keep_large_temporaries_on_the_heap()
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # reported with the subcommand's usage, not the top level's
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.config is not None:
        try:
            file_flags = _read_config_file(args.config)
        except (OSError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # argv[0] is the subcommand; the file's flags go right after it, so
        # the explicit flags that follow override them
        args, unknown = parser.parse_known_args(argv[:1] + file_flags + argv[1:])
        if unknown:
            print(f"error: {args.config}: not flags of {args.command}: {' '.join(unknown)}",
                  file=sys.stderr)
            return 2
    try:
        return args.run(args)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
