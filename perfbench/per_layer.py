"""Per-layer metrics from the spans of a traced run.

Every ``*_ms`` value is self time: a span's duration minus the time its child
spans cover.  The tape (``nnkernel.*``) and ``mixture.make_batch`` are summed
over the training steps and divided by their number, ``model.encode``,
``decode`` and ``generate_batch`` likewise per eval batch (greedy decoding:
the teacher-forced encode and decode of a training step do not count), and
every other function is averaged per call.  Counts are per training step,
per eval batch or per call too.  A metric is reported absent, with the
reason, when its function is gone from the package, when the traced run
never called it or when it reads 0 (a count of rare events, such as
truncated sequences, that did not happen).  ``REPORTED`` are the metrics of
the result line: those both gated workloads measure.
"""

from __future__ import annotations

import statistics

import numpy as np

import tracing as tr

_SELF_MS = [
    ("nnkernel.backward_ms", "nnkernel.backward", ("nnkernel.backward",)),
    ("nnkernel.adam_step_ms", "nnkernel.adam_step", ("nnkernel.adam_step",)),
    *[(f"nnkernel.op.{op}.{d}_ms", f"nnkernel.op.{op}.{d}",
       (f"nnkernel.op.{op}.fwd", f"nnkernel.op.{op}.{d}")) for op in tr.OPS for d in ("fwd", "bwd")],
    *[(f"{span}_ms", span, (span,)) for span in (
        "model.train", "model.encode", "model.decode", "model.generate_batch",
        "model.save_checkpoint", "model.load_checkpoint", "model.restore_model",
        "model.build_vocab", "mixture.build_schedule", "mixture.make_batch",
        "tasksynth.write_task_files", "tasksynth.load_task_file", "corpus.synth_corpus",
        "corpus.save_corpus", "corpus.load_corpus", "evalkit.evaluate", "evalkit.score_items",
        "evalkit.cider", "runner.run_training", "runner.evaluate_run")],
]

# Ops built from other taped ops: they attach no backward closure of their
# own, and their backward time shows under the ops they are built from.
COMPOSITE_OPS = ("attention", "conv_patchify")

# The per-layer metrics of the result line, as listed in BENCHMARK.json: the
# ones a traced train_mix8 and a traced eval_decode both measure.  The rest
# are printed and saved: load_checkpoint and restore_model run only in
# eval_decode, cider only on caption probes, the corpus save/load only in
# data_pipeline, the composite ops' backward never, the model calls no
# elementwise ``mul``, and truncations and synthesis fallbacks read 0 on the
# criterion-8 config.
REPORTED = (
    "nnkernel.backward_ms", "nnkernel.adam_step_ms",
    *[f"nnkernel.op.{op}.fwd_ms" for op in tr.OPS if op != "mul"],
    *[f"nnkernel.op.{op}.bwd_ms" for op in tr.OPS if op not in ("mul",) + COMPOSITE_OPS],
    *[f"{span}_ms" for span in (
        "model.train", "model.encode", "model.decode", "model.generate_batch",
        "model.save_checkpoint", "model.build_vocab", "mixture.build_schedule",
        "mixture.make_batch", "tasksynth.write_task_files", "tasksynth.load_task_file",
        "corpus.synth_corpus", "evalkit.evaluate", "evalkit.score_items",
        "runner.run_training", "runner.evaluate_run")],
    "nnkernel.tape_nodes_per_step", "nnkernel.matmul_gflop_per_step",
    "model.forward_ms_p50", "model.forward_ms_tail", "model.decode_calls",
    "model.decode_useful_frac", "tasksynth.examples", "model.train_hot_frac",
    "evalkit.generate_frac", "trace.overhead_s",
)

# Spans whose self time is summed per unit, not averaged per call.
EVAL_BATCH_SPANS = ("model.encode", "model.decode", "model.generate_batch")


def unit_kind_of(span):
    if span.startswith("nnkernel.") or span == "mixture.make_batch":
        return "step"
    return "eval_batch" if span in EVAL_BATCH_SPANS else None

# The calls model.train spends its time in, one step at a time.
TRAIN_HOT = ("model.forward_batch", "nnkernel.backward", "nnkernel.adam_step",
             "mixture.make_batch")


class _Spans:
    def __init__(self, tracer):
        a = tracer.arrays()
        self.tracer = tracer
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        self.self_time = tr.self_times(self.duration, self.parent)
        kinds = np.asarray([k for k, _ in tracer.units] + [""])  # unit -1: none
        self.unit_kind = kinds[a["unit"]]

    def opened(self, name):
        return bool(self.mask(name).any())

    def mask(self, name):
        i = self.tracer._name_ids.get(name)
        return self.name_id == (-1 if i is None else i)

    def self_mean(self, name):
        return float(self.self_time[self.mask(name)].mean())

    def self_in(self, name, kind):
        """Self time of the ``name`` spans inside units of ``kind``."""
        return float(self.self_time[self.mask(name) & (self.unit_kind == kind)].sum())

    def durations(self, name):
        return self.duration[self.mask(name)]

    def children_of(self, child, parent):
        """Durations of ``child`` spans opened directly inside a ``parent`` span."""
        m = self.mask(child)
        inner = self.parent >= 0
        under = np.zeros_like(m)
        under[inner] = self.mask(parent)[self.parent[inner]]
        return self.duration[m & under]


def compute(workload, passes, tracer):
    """Returns ({metric: (value, unit)}, {absent metric: reason}, {note: value})."""
    s = _Spans(tracer)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    steps = sum(1 for kind, _ in tracer.units if kind == "step")
    batches = sum(1 for kind, _ in tracer.units if kind == "eval_batch")

    def counter(key):
        return sum(v for (_, k), v in tracer.counters.items() if k == key)

    def ratio(a, b):
        return a / b if b else 0.0

    def tail(values):
        return tr.percentile(values, tr.tail_percentile(len(values))) if len(values) else 0.0

    def median_ms(values):
        return 1000 * float(np.median(values)) if len(values) else 0.0

    forward = s.durations("model.forward_batch")
    units = {"step": steps, "eval_batch": batches}

    def self_ms(span):
        kind = unit_kind_of(span)
        if kind is None:
            return 1000 * s.self_mean(span)
        return 1000 * ratio(s.self_in(span, kind), units[kind])

    specs = [(metric, "ms", needs, lambda span=span: self_ms(span))
             for metric, span, needs in _SELF_MS]
    specs += [
        ("nnkernel.tape_nodes_per_step", "count", ("nnkernel.backward",),
         lambda: ratio(counter("tape_nodes"), steps)),
        ("nnkernel.matmul_gflop_per_step", "GFLOP", ("nnkernel.op.matmul.fwd",),
         lambda: ratio(counter("matmul.flop"), steps) / 1e9),
        ("model.forward_ms_p50", "ms", ("model.forward_batch",), lambda: median_ms(forward)),
        ("model.forward_ms_tail", "ms", ("model.forward_batch",), lambda: 1000 * tail(forward)),
        ("model.decode_calls", "count", ("model.decode",),
         lambda: ratio(len(s.children_of("model.decode", "model.generate_batch")), batches)),
        ("model.decode_useful_frac", "ratio", ("model.generate_batch", "model.decode"),
         lambda: ratio(counter("generate.useful"), counter("generate.positions"))),
        ("mixture.truncated_frac", "ratio", ("mixture.make_batch",),
         lambda: ratio(counter("make_batch.truncated"), counter("make_batch.examples"))),
        ("tasksynth.examples", "count", ("tasksynth.write_task_files",),
         lambda: counter("tasksynth.examples") / len(s.durations("tasksynth.write_task_files"))),
        ("tasksynth.fallbacks", "count", ("tasksynth.write_task_files",),
         lambda: counter("tasksynth.fallbacks") / len(s.durations("tasksynth.write_task_files"))),
        ("model.train_hot_frac", "ratio", ("model.train",) + TRAIN_HOT,
         lambda: ratio(sum(s.children_of(c, "model.train").sum() for c in TRAIN_HOT),
                       s.durations("model.train").sum())),
        ("evalkit.generate_frac", "ratio", ("evalkit.evaluate", "model.generate_batch"),
         lambda: ratio(s.children_of("model.generate_batch", "evalkit.evaluate").sum(),
                       s.durations("evalkit.evaluate").sum())),
        ("trace.overhead_s", "s", (),
         lambda: statistics.median(p["wall_s"] for p in traced)
         - statistics.median(p["wall_s"] for p in plain)),
    ]

    def why_absent(needs):
        for name in needs:
            if name in tracer.absent:
                return f"{name}: no such function in the package"
        for name in needs:
            if name.endswith(".bwd") and name.split(".")[2] in COMPOSITE_OPS:
                return f"{name}: a composite op, timed under the ops it is built from"
        for name in needs:
            if not s.opened(name):
                return f"{name}: not called on {workload.name}"
        return None

    metrics, absent = {}, {}
    for metric, unit, needs, value in specs:
        reason = why_absent(needs)
        if reason is None:
            v = float(value())
            if v == 0:  # e.g. no sequence truncated: a rare-event count left out, not a 0
                reason = f"reads 0 on {workload.name}"
            else:
                metrics[metric] = (v, unit)
        if reason:
            absent[metric] = reason

    notes = {"inclusive_ms_per_step": {
        name: round(1000 * ratio(float(s.durations(name).sum()), steps), 4)
        for name in ("model.train", "model.forward_batch", "nnkernel.backward",
                     "nnkernel.adam_step", "mixture.make_batch")},
        "inclusive_ms_per_eval_batch": {
        name: round(1000 * ratio(float(s.durations(name).sum()), batches), 4)
        for name in ("evalkit.evaluate", "model.generate_batch")},
        "traced_steps": steps, "traced_eval_batches": batches, "spans": len(s.duration)}
    return metrics, absent, notes
