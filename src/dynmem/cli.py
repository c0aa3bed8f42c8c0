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
from functools import partial
from pathlib import Path

import numpy as np

from . import evaluation as ev
from .data import CorpusConfig, TASKS, build_corpus, load_corpus, save_corpus
from .experiment import (ExperimentConfig, map_seeds, run_base_training, run_continual,
                         run_full_training)
from .model import ConvNetClassifier
from .validation import ConfigError

DEFAULT_SWEEP_SIZES = (16, 32, 64, 80, 128, 160)


def _read_config_file(path):
    """Flat `key = value` config file as flag tokens: each key is a flag of
    the subcommand without its dashes, `key = true` / `key = false` sets or
    omits a bare flag, and a value of several words gives several arguments."""
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
MEMORY_SIZE = _checked(int, lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2")
FINITE = _checked(float, math.isfinite, "a finite number")
RAMP_FRACTION = _checked(float, lambda v: math.isfinite(v) and 0.0 <= v < 0.5,
                         "a finite number in [0, 0.5)")


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file (flags override)")
    p.add_argument("--seed", type=int, default=100, help="first seed")
    p.add_argument("--seeds", type=COUNT, default=5, help="number of seeded repetitions")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _add_corpus_flags(p):
    p.add_argument("--image-size", type=COUNT, default=32)
    p.add_argument("--base-n", type=COUNT, default=600, help="base split size (task A)")
    p.add_argument("--cont-a", type=COUNT, default=600)
    p.add_argument("--cont-b", type=COUNT, default=400)
    p.add_argument("--cont-c", type=COUNT, default=950)
    p.add_argument("--eval-n", type=COUNT, default=150,
                   help="validation/test size per task")
    p.add_argument("--ramp-fraction", type=RAMP_FRACTION, default=0.15,
                   help="share of the shorter adjacent segment carved into each "
                        "side of a transition ramp; 0 is an abrupt shift")


def _add_training_flags(p):
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.add_argument("--batch", type=COUNT, default=8, help="input-mini-batch size B")
    p.add_argument("--train-batch", type=COUNT, default=8, help="training-mini-batch size T")
    p.add_argument("--lr", type=FINITE, default=3e-3,
                   help="learning rate for base and full training")
    p.add_argument("--stream-lr", type=FINITE, default=5e-4,
                   help="learning rate for the continual stream phase")
    p.add_argument("--base-epochs", type=COUNT, default=6)
    p.add_argument("--full-epochs", type=COUNT, default=12)
    p.add_argument("--probe-every", type=COUNT, default=30)


def build_parser():
    parser = argparse.ArgumentParser(prog="dynmem",
                                     description="Continual-learning experiments with a "
                                                 "gram-distance dynamic rehearsal memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate the synthetic corpus")
    _add_common(p)
    _add_corpus_flags(p)

    p = sub.add_parser("train-base", help="train the base model on task A (per seed)")
    _add_common(p)
    _add_training_flags(p)
    p.add_argument("--no-ewc", action="store_true",
                   help="skip Fisher/anchor computation in the checkpoint")

    p = sub.add_parser("continual", help="run a continual strategy over the stream")
    _add_common(p)
    _add_training_flags(p)
    p.add_argument("--strategy", required=True, choices=("naive", "ewc", "ewc-fbn", "dm"))
    p.add_argument("--memory", type=MEMORY_SIZE, default=32, help="memory size M")
    p.add_argument("--lambda", dest="ewc_lambda", type=FINITE, default=3000.0,
                   help="EWC penalty weight")
    p.add_argument("--base", type=Path, default=None,
                   help="directory holding base checkpoints (default: --out)")
    p.add_argument("--recompute-signatures", action="store_true")

    p = sub.add_parser("sweep-memory", help="run the dm strategy across memory sizes")
    _add_common(p)
    _add_training_flags(p)
    p.add_argument("--sizes", type=MEMORY_SIZE, nargs="+", default=list(DEFAULT_SWEEP_SIZES))
    p.add_argument("--base", type=Path, default=None)

    p = sub.add_parser("full-training", help="epoch-based upper bound on all data")
    _add_common(p)
    _add_training_flags(p)
    return parser


def _experiment_config(args):
    return ExperimentConfig(
        seed=args.seed, n_seeds=args.seeds,
        input_batch_size=args.batch, train_batch_size=args.train_batch,
        memory_size=getattr(args, "memory", 32),
        ewc_lambda=getattr(args, "ewc_lambda", 3000.0),
        learning_rate=args.lr, stream_learning_rate=args.stream_lr,
        base_epochs=args.base_epochs,
        full_epochs=args.full_epochs, probe_every=args.probe_every,
        recompute_signatures=getattr(args, "recompute_signatures", False),
    )


def _load_corpus(args, cfg):
    corpus = load_corpus(args.corpus)
    cfg.image_size = corpus.config.image_size
    return corpus


def _write_rows(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(ev.rows_to_csv(rows).encode())


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _base_checkpoint(args, corpus, seed):
    path = (getattr(args, "base", None) or args.out) / f"base_seed{seed}.ckpt"
    if not path.exists():
        raise ConfigError(f"no base checkpoint at {path}; run train-base first")
    model = ConvNetClassifier.load(path)
    if model.image_size != corpus.config.image_size:
        raise ConfigError(f"{path} was trained on {model.image_size}-pixel images, but the "
                          f"corpus at {args.corpus} has {corpus.config.image_size}-pixel "
                          f"images; rerun train-base on that corpus")
    return model


def cmd_generate(args):
    cfg = CorpusConfig(image_size=args.image_size, base_count=args.base_n,
                       continuous_counts=(args.cont_a, args.cont_b, args.cont_c),
                       eval_count=args.eval_n, ramp_fraction=args.ramp_fraction)
    corpus = build_corpus(cfg, seed=args.seed)
    save_corpus(corpus, args.out)
    print(f"corpus written to {args.out}", file=sys.stderr)
    return 0


def cmd_train_base(args):
    cfg = _experiment_config(args)
    corpus = _load_corpus(args, cfg)
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
    base_model = _base_checkpoint(args, corpus, seed)
    if strategy in ("ewc", "ewc-fbn") and base_model.fisher is None:
        raise ConfigError(f"strategy {strategy} needs a checkpoint with Fisher "
                          f"information (re-run train-base without --no-ewc)")
    return run_continual(corpus, base_model, strategy, cfg, seed)


def _continual_runs(args, cfg, corpus, strategy, memory_size, out_dir):
    cfg.memory_size = memory_size
    summaries = []
    for result in map_seeds(partial(_continual_run, args, cfg, corpus, strategy), cfg.seeds()):
        run_dir = out_dir / f"seed{result.seed}"
        _write_rows(run_dir / "metrics.csv", result.rows)
        _write_json(run_dir / "summary.json", result.summary)
        if result.memory_dump is not None:
            (run_dir / "memory_dump.txt").write_text(result.memory_dump)
        summaries.append(result.summary)
        print(f"{strategy} seed {result.seed}: accA={result.summary['acc_A']:.3f} "
              f"bwt={result.summary['bwt']:.3f}", file=sys.stderr)
    agg = ev.aggregate_summaries(summaries, ("acc_A", "acc_B", "acc_C", "bwt", "fwt", "area_C"))
    _write_json(out_dir / "summary.json",
                {"strategy": strategy, "memory_size": memory_size,
                 "seeds": cfg.seeds(), "aggregate": agg})
    return agg


def cmd_continual(args):
    cfg = _experiment_config(args)
    corpus = _load_corpus(args, cfg)
    out_dir = args.out / f"{args.strategy}_M{args.memory}" if args.strategy == "dm" \
        else args.out / args.strategy
    _continual_runs(args, cfg, corpus, args.strategy, args.memory, out_dir)
    return 0


def cmd_sweep_memory(args):
    cfg = _experiment_config(args)
    corpus = _load_corpus(args, cfg)
    lines = ["M,acc_A,acc_B,acc_C,acc_avg,area_C"]
    for size in args.sizes:
        agg = _continual_runs(args, cfg, corpus, "dm", size, args.out / f"dm_M{size}")
        accs = [agg[f"acc_{t}"]["mean"] for t in TASKS]
        row = (size, *accs, float(np.mean(accs)), agg["area_C"]["mean"])
        lines.append(",".join(str(v) for v in row))
    (args.out / "memory_sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_full_training(args):
    cfg = _experiment_config(args)
    corpus = _load_corpus(args, cfg)
    summaries = []
    for result in map_seeds(partial(run_full_training, corpus, cfg), cfg.seeds()):
        run_dir = args.out / "full" / f"seed{result.seed}"
        _write_rows(run_dir / "metrics.csv", result.rows)
        _write_json(run_dir / "summary.json", result.summary)
        summaries.append(result.summary)
    agg = ev.aggregate_summaries(summaries, ("acc_A", "acc_B", "acc_C"))
    _write_json(args.out / "full" / "summary.json",
                {"strategy": "full", "seeds": cfg.seeds(), "aggregate": agg})
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train-base": cmd_train_base,
    "continual": cmd_continual,
    "sweep-memory": cmd_sweep_memory,
    "full-training": cmd_full_training,
}


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
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
        return COMMANDS[args.command](args)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
