"""Traced runs of the dynmem CLI and the per-layer metrics taken from them.

As a script, runs one CLI command with a span recorded around every call into
the package's public functions, and writes the spans when the command ends:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.npz <dynmem arguments>

The spans are recorded here, from outside the package: each traced function
is replaced, in every dynmem module that binds it, by a wrapper that notes
its name, start, end, the span that called it and one integer tag (batch
size, replacement flag or kept-item count). `layer_metrics` turns the span
files of a traced run into the per-layer metrics named in perfbench/README.md.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Spans kept in memory as parallel arrays, one entry per call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def wrap(self, span, fn, tag_in=None, tag_out=None):
        """`fn` with a span named `span` around each call. `tag_in(*args,
        **kwargs)` or `tag_out(args, result)` gives the span's tag."""
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.tag.append(tag_in(*args, **kwargs) if tag_in else 0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if tag_out:
                self.tag[i] = tag_out(args, result)
            return result

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), tag=np.asarray(self.tag),
                 start=np.asarray(self.start), end=np.asarray(self.end))


def _kept_in_own_step(args, report):
    """Items the step inserted that are still stored when it returns."""
    strategy = args[0]
    memory = getattr(strategy, "memory", None)
    if memory is None:
        return 0
    return sum(1 for item in memory.items if item.step == strategy.step_count)


def _is_train(self, X, train=False):
    return int(train)


def install(tracer):
    """Replace the traced public functions of dynmem with span-recording wrappers."""
    from dynmem import cli, data, evaluation, experiment, gram, memory, model, nn, strategies

    modules = (cli, data, evaluation, experiment, gram, memory, model, nn, strategies)

    def function(module, attr, span, **tags):
        original = getattr(module, attr)
        traced = tracer.wrap(span, original, **tags)
        for m in modules:  # rebind every `from .x import f` copy too
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)

    def method(cls, attr, span, **tags):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, **tags)))
        else:
            setattr(cls, attr, tracer.wrap(span, raw, **tags))

    method(nn.Conv2d, "forward", "nn.conv_forward", tag_in=lambda self, x, mode: x.shape[0])
    method(nn.Conv2d, "backward", "nn.conv_backward")
    method(nn.BatchNorm2d, "forward", "nn.norm_forward")
    method(nn.BatchNorm2d, "backward", "nn.norm_backward")
    method(nn.Adam, "step", "nn.adam_step")

    net = model.ConvNetClassifier
    method(net, "train_step", "model.train_step")
    method(net, "fit", "model.fit")
    method(net, "fisher_diagonal", "model.fisher_diagonal")
    method(net, "forward_with_taps", "model.forward", tag_in=_is_train)
    method(net, "save", "model.save")
    method(net, "load", "model.load")
    method(net, "clone", "model.clone")

    function(gram, "gram_matrix", "gram.matrix")
    function(gram, "gram_distance", "gram.distance")
    function(gram, "signatures", "gram.signatures")

    store = memory.DynamicMemory
    method(store, "insert", "memory.insert",
           tag_out=lambda args, outcome: int(outcome.kind == "replaced"))
    method(store, "draw_rehearsal", "memory.draw")
    method(store, "refresh_signatures", "memory.refresh")

    for cls in (strategies.NaiveStrategy, strategies.EWCStrategy, strategies.DMStrategy):
        method(cls, "step", "strategies.step", tag_out=_kept_in_own_step)
    method(strategies.EWCStrategy, "penalty", "strategies.penalty")

    function(evaluation, "validation_probe", "evaluation.probe")
    function(evaluation, "accuracy", "evaluation.accuracy",
             tag_in=lambda model, images, labels, **kw: len(labels))
    function(evaluation, "rows_to_csv", "evaluation.csv")

    function(experiment, "run_continual", "experiment.run_continual")
    function(data, "build_corpus", "data.build_corpus")
    function(data, "load_corpus", "data.load_corpus")
    function(data, "emit_stream", "data.emit_stream")

    function(cli, "main", "cli.main")
    return cli.main


# unit of each per-layer metric; the order is the order of the report
LAYER_UNITS = {
    "nn.conv_forward_s": "s", "nn.conv_backward_s": "s",
    "nn.norm_forward_s": "s", "nn.norm_backward_s": "s",
    "nn.adam_step_s": "s", "nn.adam_step_calls": "count",
    "nn.conv_forward_ms.n1": "ms", "nn.conv_forward_ms.n8": "ms",
    "nn.conv_forward_ms.n32": "ms", "nn.conv_forward_ms.n150": "ms",
    "model.train_step_calls": "count", "model.train_step_s": "s", "model.fit_s": "s",
    "model.fisher_diagonal_s": "s", "model.forward_eval_calls": "count",
    "model.forward_eval_s": "s", "model.save_s": "s", "model.load_s": "s",
    "model.clone_s": "s",
    "gram.matrix_calls": "count", "gram.matrix_s": "s", "gram.distance_calls": "count",
    "gram.distance_s": "s", "gram.signatures_s": "s",
    "memory.insert_calls": "count", "memory.insert_s": "s", "memory.insert_us": "us",
    "memory.replaced": "count", "memory.draw_s": "s", "memory.refresh_s": "s",
    "memory.insert_kept_ratio": "ratio", "memory.distances_per_replacement": "ratio",
    "strategies.step_calls": "count", "strategies.step_ms_p50": "ms",
    "strategies.step_ms_p95": "ms", "strategies.step_self_s": "s",
    "strategies.penalty_s": "s",
    "evaluation.probe_calls": "count", "evaluation.probe_s": "s",
    "evaluation.accuracy_images": "count", "evaluation.accuracy_s": "s",
    "evaluation.csv_s": "s",
    "experiment.run_continual_self_s": "s", "data.build_corpus_s": "s",
    "data.load_corpus_s": "s", "data.emit_stream_s": "s", "cli.self_s": "s",
    "trace.spans": "count",
}


def _load(path):
    """One span file as arrays, with durations and self times."""
    with np.load(path) as f:
        spans = {k: f[k] for k in f.files}
    dur = spans["end"] - spans["start"]
    called = spans["parent"] >= 0
    child = np.bincount(spans["parent"][called], weights=dur[called], minlength=len(dur))
    spans["dur"], spans["self"] = dur, dur - child
    spans["span"] = spans["names"][spans["name"]] if len(dur) else np.array([], dtype=str)
    return spans


def layer_metrics(paths):
    """Per-layer metrics summed over the span files of one traced run. A
    median, percentile or ratio over no calls reads 0."""
    files = [_load(p) for p in paths]

    def pick(span, field="dur", where=None):
        parts = []
        for s in files:
            mask = s["span"] == span
            if where is not None:
                mask &= where(s)
            parts.append(s[field][mask])
        return np.concatenate(parts) if parts else np.array([])

    def total(span, field="dur", where=None):
        return float(pick(span, field, where).sum())

    def count(span, where=None):
        return int(pick(span, "dur", where).size)

    def percentile(values, q, scale=1.0):
        return float(np.percentile(values, q)) * scale if values.size else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def evaluating(s):  # eval-mode forwards carry tag 0
        return s["tag"] == 0

    def in_insert(s):  # spans called directly by memory.insert
        return np.isin(s["parent"], np.nonzero(s["span"] == "memory.insert")[0])

    m = {
        "nn.conv_forward_s": total("nn.conv_forward"),
        "nn.conv_backward_s": total("nn.conv_backward"),
        "nn.norm_forward_s": total("nn.norm_forward"),
        "nn.norm_backward_s": total("nn.norm_backward"),
        "nn.adam_step_s": total("nn.adam_step"),
        "nn.adam_step_calls": count("nn.adam_step"),
    }
    for n in (1, 8, 32, 150):
        m[f"nn.conv_forward_ms.n{n}"] = percentile(
            pick("nn.conv_forward", where=lambda s: s["tag"] == n), 50, 1e3)
    m.update({
        "model.train_step_calls": count("model.train_step"),
        "model.train_step_s": total("model.train_step"),
        "model.fit_s": total("model.fit"),
        "model.fisher_diagonal_s": total("model.fisher_diagonal"),
        "model.forward_eval_calls": count("model.forward", where=evaluating),
        "model.forward_eval_s": total("model.forward", where=evaluating),
        "model.save_s": total("model.save"),
        "model.load_s": total("model.load"),
        "model.clone_s": total("model.clone"),
        "gram.matrix_calls": count("gram.matrix"),
        "gram.matrix_s": total("gram.matrix"),
        "gram.distance_calls": count("gram.distance"),
        "gram.distance_s": total("gram.distance"),
        "gram.signatures_s": total("gram.signatures"),
    })
    inserts = pick("memory.insert")
    replaced = int(pick("memory.insert", "tag").sum())
    steps = pick("strategies.step")
    m.update({
        "memory.insert_calls": int(inserts.size),
        "memory.insert_s": float(inserts.sum()),
        "memory.insert_us": percentile(inserts, 50, 1e6),
        "memory.replaced": replaced,
        "memory.draw_s": total("memory.draw"),
        "memory.refresh_s": total("memory.refresh"),
        "memory.insert_kept_ratio": ratio(int(pick("strategies.step", "tag").sum()),
                                          inserts.size),
        "memory.distances_per_replacement": ratio(count("gram.distance", where=in_insert),
                                                  replaced),
        "strategies.step_calls": int(steps.size),
        "strategies.step_ms_p50": percentile(steps, 50, 1e3),
        "strategies.step_ms_p95": percentile(steps, 95, 1e3),
        "strategies.step_self_s": total("strategies.step", "self"),
        "strategies.penalty_s": total("strategies.penalty"),
        "evaluation.probe_calls": count("evaluation.probe"),
        "evaluation.probe_s": total("evaluation.probe"),
        "evaluation.accuracy_images": int(pick("evaluation.accuracy", "tag").sum()),
        "evaluation.accuracy_s": total("evaluation.accuracy"),
        "evaluation.csv_s": total("evaluation.csv"),
        "experiment.run_continual_self_s": total("experiment.run_continual", "self"),
        "data.build_corpus_s": total("data.build_corpus"),
        "data.load_corpus_s": total("data.load_corpus"),
        "data.emit_stream_s": total("data.emit_stream"),
        "cli.self_s": total("cli.main", "self"),
        "trace.spans": sum(len(s["dur"]) for s in files),
    })
    return m


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
