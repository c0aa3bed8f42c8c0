"""Benchmark of the dynmem experiment, run through its CLI as a user runs it.

    python3 perfbench/run.py --workload {base-ewc,stream} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`. Each workload sets up its inputs from the seed, then runs whole rounds
of its timed CLI commands, one process at a time with one BLAS thread, until
`--seconds` have passed. Every output is checked for correctness. With
`--trace 0` the end-to-end metrics are reported, each command timed at the
reference speed (see `Runner.run`); with `--trace 1` the run sets up traced,
runs one untraced and one traced round by the wall clock, and reports
per-layer metrics from the spans plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# one process at a time, one BLAS thread: the load the figures describe; set
# before numpy is first imported, so the checks run on one thread too
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
STREAM_COMMANDS = ("ewc_fbn", "dm_m32", "dm_m160", "dm_m32_refresh")
DEADLINE_S = 170  # every command still running this long after the start is killed
SLICE_S = 1.0  # an untraced command runs this long between two reference bursts
REFERENCE_S = 0.020  # seconds one reference burst takes when this machine runs fast

_REF_RNG = np.random.default_rng(0)
_REF_W = _REF_RNG.standard_normal((16, 16), dtype=np.float32)
_REF_X = _REF_RNG.standard_normal((8, 16, 1024), dtype=np.float32)


def reference():
    """Seconds a fixed burst of small float32 products and interpreter work takes now.

    The program's own mix at batch 8; it gauges how fast the machine runs at
    the moment, independently of the program. The first rounds after a pause
    run slow while caches and the core warm up, so they are not timed.
    """
    _reference_rounds(20)
    start = time.perf_counter()
    _reference_rounds(100)
    return time.perf_counter() - start


def _reference_rounds(rounds):
    total = 0.0
    for _ in range(rounds):
        for x in _REF_X:
            total += float(np.maximum(_REF_W @ x, 0.0).mean())
        total += sum(k * k for k in range(300))
    return total


class Workload:
    """Set-up and timed commands of one workload, as CLI argument lists.

    `round_commands` gives (name, arguments, result directory, memory size)
    per command; the result directory is where the command writes its seed's
    outputs, and the memory size is 0 for strategies without a memory.
    """

    def __init__(self, name, seed):
        self.name, self.seed = name, str(seed)
        # a stream set-up trains a base model (about 10 s); one per run keeps
        # the 48 runs of a two-workload comparison within an hour
        self.setup_repeats = 3 if name == "base-ewc" else 1

    def setup_commands(self, out):
        """(name, arguments, output directory) per set-up command."""
        corpus = out / "corpus"
        cmds = [("generate", ["generate", "--out", corpus, "--seed", self.seed], corpus)]
        if self.name == "stream":
            cmds.append(("train_base", ["train-base", "--corpus", corpus, "--out", out / "base",
                                        "--seed", self.seed, "--seeds", "1"], out / "base"))
        return cmds

    def round_commands(self, setup, out):
        if self.name == "base-ewc":
            return [("train_base", ["train-base", "--corpus", setup / "corpus",
                                    "--out", out / "train_base", "--seed", self.seed,
                                    "--seeds", "2"], out / "train_base", 0)]
        common = ["continual", "--corpus", setup / "corpus", "--base", setup / "base",
                  "--seed", self.seed, "--seeds", "1"]
        runs = [("ewc_fbn", ["--strategy", "ewc-fbn"], "ewc-fbn", 0),
                ("dm_m32", ["--strategy", "dm", "--memory", "32"], "dm_M32", 32),
                ("dm_m160", ["--strategy", "dm", "--memory", "160"], "dm_M160", 160),
                ("dm_m32_refresh", ["--strategy", "dm", "--memory", "32",
                                    "--recompute-signatures"], "dm_M32", 32)]
        return [(name, common + ["--out", out / name] + flags,
                 out / name / subdir / f"seed{self.seed}", memory)
                for name, flags, subdir, memory in runs]

    def check(self, setup, out):
        """Correctness messages for one set-up and one round's outputs."""
        from dynmem.data import load_corpus

        corpus = load_corpus(setup / "corpus")
        if self.name == "base-ewc":
            seed = int(self.seed)
            return checks.base_errors(out / "train_base", corpus, [seed, seed + 1])
        errors = checks.base_errors(setup / "base", corpus, [int(self.seed)])
        for _name, _args, result, memory in self.round_commands(setup, out):
            errors += checks.continual_errors(result, memory, corpus.config)
        return errors


class Runner:
    """Runs CLI commands one at a time and records what each cost."""

    def __init__(self, deadline, sliced):
        self.deadline, self.sliced = deadline, sliced
        self.attempted = self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, args, log, spans=None):
        """Seconds and peak resident set (KiB) of one command; None on failure.

        Unless the runner is `sliced`, the seconds are the command's wall
        time. A sliced runner stops the command every `SLICE_S` seconds for a
        reference burst, and its seconds are the wall time it ran, each slice
        scaled to the reference speed by the bursts on either side of it.
        """
        prog = [str(BENCH / "tracing.py"), str(spans)] if spans else ["-m", "dynmem.cli"]
        argv = [sys.executable, *prog, *map(str, args)]
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as out:
            start = time.perf_counter()
            # its own process group, so stopping and killing reach its children too
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=out,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    _signal, (proc, signal.SIGKILL))
            timer.start()
            try:
                seconds, wall = (self._sliced(proc, start) if self.sliced
                                 else self._whole(proc, start))
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _signal(proc, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            print(f"perfbench: {args[0]} failed with exit code "
                  f"{proc.returncode}; see {log}", file=sys.stderr)
            return None
        if self.sliced:
            print(f"perfbench: {args[0]} ran {wall:.3f} s wall, {seconds:.3f} s at the "
                  f"reference speed", file=sys.stderr)
        return seconds, usage.ru_maxrss

    @staticmethod
    def _whole(proc, start):
        """Wall seconds until the command exits, as seconds and wall (it is not reaped)."""
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        return wall, wall

    @staticmethod
    def _sliced(proc, start):
        """Seconds at the reference speed and wall seconds the command ran (not reaped)."""
        pidfd = os.pidfd_open(proc.pid)
        seconds = walls = 0.0
        before = None
        try:
            while True:
                done = select.select([pidfd], [], [], SLICE_S)[0]
                if not done:
                    _signal(proc, signal.SIGSTOP)
                wall = time.perf_counter() - start
                after = _reference_where(proc)
                burst = after if before is None else (before + after) / 2
                seconds += wall * REFERENCE_S / burst
                walls += wall
                if done:
                    return seconds, walls
                before, start = after, time.perf_counter()
                _signal(proc, signal.SIGCONT)
        finally:
            os.close(pidfd)

    def setup(self, workload, out, traced=False):
        """Seconds one set-up took, or None if a command failed."""
        total = 0.0
        for name, args, _output in workload.setup_commands(out):
            spans = out / f"{name}.spans.npz" if traced else None
            cost = self.run(args, out / f"{name}.log", spans)
            if cost is None:
                return None
            total += cost[0]
        return total

    def round(self, workload, setup, out, traced=False):
        """Per-command (seconds, KiB) of one round; a failed command maps to None."""
        costs = {}
        for name, args, _result, _memory in workload.round_commands(setup, out):
            self.attempted += 1
            spans = out / f"{name}.spans.npz" if traced else None
            costs[name] = self.run(args, out / f"{name}.log", spans)
            self.failed += costs[name] is None
        return costs


def _reference_where(proc):
    """A reference burst on the core the command last ran on, whose speed it shares."""
    allowed = os.sched_getaffinity(0)
    try:
        stat = Path(f"/proc/{proc.pid}/stat").read_text()
        os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})
    except (OSError, ValueError, IndexError):
        pass  # the command has just exited: any core will do
    try:
        return reference()
    finally:
        os.sched_setaffinity(0, allowed)


def _signal(proc, sig):
    """Send `sig` to the command's process group, if any of it is left."""
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds, runner, errors):
    """Untraced set-ups and rounds; the end-to-end metrics."""
    setups = []
    for k in range(workload.setup_repeats):
        out = OUT / f"setup{k}"
        setups.append(runner.setup(workload, out))
        if setups[-1] is None:
            raise RuntimeError("set-up failed")
        if k:
            for (_, _, first), (_, _, again) in zip(workload.setup_commands(OUT / "setup0"),
                                                    workload.setup_commands(out)):
                errors += checks.identical_trees(first, again)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out = OUT / f"round{len(rounds)}"
        rounds.append(runner.round(workload, OUT / "setup0", out))
    errors += check_rounds(workload, rounds)
    ok = [costs for costs in rounds if None not in costs.values()]
    if not ok:
        raise RuntimeError("no round completed")
    run_s = [sum(wall for wall, _ in costs.values()) for costs in ok]
    rss_kib = [rss for costs in ok for _, rss in costs.values()]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_s": _metric(statistics.median(run_s), "s"),
        "peak_rss_mb": _metric(max(rss_kib) / 1024, "MB"),
    }


def trace(workload, runner, errors):
    """A traced set-up, one untraced and one traced round; the per-layer metrics."""
    setup = OUT / "setup0"
    if runner.setup(workload, setup, traced=True) is None:
        raise RuntimeError("set-up failed")
    rounds = [runner.round(workload, setup, OUT / "round0"),
              runner.round(workload, setup, OUT / "round1", traced=True)]
    errors += check_rounds(workload, rounds)
    spans = sorted(setup.glob("*.spans.npz")) + sorted((OUT / "round1").glob("*.spans.npz"))
    layers = tracing.layer_metrics(spans)
    metrics = {name: _metric(layers[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    untraced, traced = (sum(cost[0] for cost in costs.values() if cost) for costs in rounds)
    for name in STREAM_COMMANDS:  # 0 on a workload that does not run the command
        cost = rounds[0].get(name)
        metrics[f"command.{name}_s"] = _metric(cost[0] if cost else 0.0, "s")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    metrics["trace.overhead_ratio"] = _metric((traced - untraced) / untraced if untraced else 0.0,
                                              "ratio")
    return metrics


def check_rounds(workload, rounds):
    """Correctness of the first complete round; later rounds must match it byte for byte."""
    ok = [k for k, costs in enumerate(rounds) if None not in costs.values()]
    if not ok:
        return []
    first = OUT / f"round{ok[0]}"
    errors = workload.check(OUT / "setup0", first)
    for k in ok[1:]:
        for name, _args, _result, _memory in workload.round_commands(OUT / "setup0", first):
            errors += checks.identical_trees(first / name, OUT / f"round{k}" / name)
    return errors


def environment():
    """What the figures depend on besides the code: interpreter, numpy, BLAS, cores, threads."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("base-ewc", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "dynmem" / "cli.py").is_file():
        print(f"perfbench: no dynmem source at {ROOT / 'src' / 'dynmem'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    env = environment()
    (OUT / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed} on {env}", file=sys.stderr)
    workload = Workload(args.workload, args.seed)
    runner = Runner(time.monotonic() + DEADLINE_S, sliced=not args.trace)
    errors = []
    try:
        if args.trace:
            metrics = trace(workload, runner, errors)
        else:
            metrics = measure(workload, args.seconds, runner, errors)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for message in errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
