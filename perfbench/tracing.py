"""In-memory spans around calls into mixpretrain's public functions.

The benchmark never edits the package: it replaces each function it measures
with a timing wrapper, in every loaded ``mixpretrain`` module that holds a
reference to it (``runner`` imports ``train`` by name, ``model`` imports the
tape ops by name, and so on), and puts the originals back afterwards.

A span is (name, start, end, parent, unit).  ``parent`` is the span that was
open when this one started; ``unit`` is the training step or eval batch the
span belongs to (-1 outside either).  Spans live in flat arrays and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import json
import os
from time import perf_counter

import numpy as np

# Tape ops timed one by one: forward as the op call, backward as the closure
# the op attaches to the tensor it returns.
OPS = ("add", "mul", "scale", "matmul", "relu", "embedding", "reshape", "transpose",
       "concat", "softmax", "layer_norm", "attention", "conv_patchify",
       "cross_entropy_masked")

# span name -> (module, attribute path).  Only entry points the package keeps
# are listed: no train(hooks=), evalkit.predict, box labels or gradcheck_suite.
TARGETS = {
    "nnkernel.backward": ("nnkernel", "backward"),
    "nnkernel.adam_step": ("nnkernel", "adam_step"),
    **{f"nnkernel.op.{op}.fwd": ("nnkernel", op) for op in OPS},
    "model.train": ("model", "train"),
    "model.forward_batch": ("model", "Model.forward_batch"),
    "model.encode": ("model", "Model.encode"),
    "model.decode": ("model", "Model.decode"),
    "model.generate_batch": ("model", "Model.generate_batch"),
    "model.save_checkpoint": ("model", "save_checkpoint"),
    "model.load_checkpoint": ("model", "load_checkpoint"),
    "model.restore_model": ("model", "restore_model"),
    "model.build_vocab": ("model", "build_vocab"),
    "mixture.build_schedule": ("mixture", "build_schedule"),
    "mixture.make_batch": ("mixture", "make_batch"),
    "tasksynth.write_task_files": ("tasksynth", "write_task_files"),
    "tasksynth.load_task_file": ("tasksynth", "load_task_file"),
    "corpus.synth_corpus": ("corpus", "synth_corpus"),
    "corpus.save_corpus": ("corpus", "save_corpus"),
    "corpus.load_corpus": ("corpus", "load_corpus"),
    "evalkit.evaluate": ("evalkit", "evaluate"),
    "evalkit.score_items": ("evalkit", "score_items"),
    "evalkit.cider": ("evalkit", "cider"),
    "runner.run_training": ("runner", "run_training"),
    "runner.evaluate_run": ("runner", "evaluate_run"),
}

PACKAGE = "mixpretrain"
MODULES = ("nnkernel", "model", "mixture", "tasksynth", "corpus", "evalkit", "runner", "cli")

# Percentiles a tail may be reported at, in tenths of a percent, highest first.
_TAIL_PERMILLE = (999, 990, 980, 950, 900, 750)


def tail_percentile(n):
    """Highest percentile (as a float) with at least ten of ``n`` samples
    beyond it, or 50.0 when even the median has fewer."""
    for pm in _TAIL_PERMILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10
    return 50.0


def percentile(values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def useful_positions(predictions, max_len):
    """Decoded positions that end up in a prediction: its tokens plus the eos
    that ended it.  A row with no eos within ``max_len`` keeps all of them."""
    return sum(min(len(ids) + 1, max_len) for ids in predictions)


def decode_useful_frac(predictions, decode_calls):
    """Share of the positions a greedy decode computed (one per row per decode
    call) that survive into a prediction."""
    computed = len(predictions) * decode_calls
    return useful_positions(predictions, decode_calls) / computed if computed else 0.0


def self_times(durations, parents):
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other."""
    dur = np.asarray(durations, dtype=np.float64)
    par = np.asarray(parents, dtype=np.int64)
    covered = np.zeros_like(dur)
    inner = par >= 0
    np.add.at(covered, par[inner], dur[inner])
    return dur - covered


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _holders(name):
    """(function behind span ``name``, [(holder, attribute) that refer to it]),
    or None when the package no longer has that function.  A method is held
    by its class; a function by every loaded module that names it."""
    mods = {}
    for m in MODULES:
        try:
            mods[m] = importlib.import_module(f"{PACKAGE}.{m}")
        except ModuleNotFoundError:
            pass
    mod_name, path = TARGETS[name]
    owner_path, _, attr = path.rpartition(".")
    try:
        owner = _resolve(mods[mod_name], owner_path) if owner_path else mods[mod_name]
        original = getattr(owner, attr)
    except (KeyError, AttributeError):
        return None
    if owner_path:
        return original, [(owner, attr)]
    return original, [(mod, key) for mod in mods.values()
                      for key, value in vars(mod).items() if value is original]


def _patch(holders, replacement):
    """Point every holder at ``replacement``; returns what undoes it."""
    undo = []
    for holder, key in holders:
        undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, replacement)
    return undo


def _unpatch(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


class Stopped(BaseException):
    """Raised in place of the function ``stop_at`` names.  A BaseException,
    so that the package's own ``except`` clauses let it through."""


@contextlib.contextmanager
def stop_at(name):
    """Within the block, a call of the function behind span ``name`` raises
    ``Stopped`` instead of running, so that a caller can time everything an
    entry point does before it gets there."""
    found = _holders(name)
    if found is None:
        raise KeyError(f"{name}: no such function in the package")

    def stop(*args, **kwargs):
        raise Stopped(name)

    undo = _patch(found[1], stop)
    try:
        yield
    finally:
        _unpatch(undo)


class Tracer:
    """Installs timing wrappers for a chosen set of span names.

    ``names`` is a subset of TARGETS.  The backward closure of every tensor an
    op wrapper returns is timed too, as a ``nnkernel.op.<op>.bwd`` span.
    Names whose function no longer exists are collected in ``absent``.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.unit = array.array("i")
        self._stack = []
        self.current_unit = -1
        self.units = []  # unit id -> (kind, pass index)
        self.pass_index = -1
        self.counters = {}
        self.absent = set()
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_unit(self, kind):
        self.current_unit = len(self.units)
        self.units.append((kind, self.pass_index))

    def count(self, key, amount=1):
        k = (self.pass_index, key)
        self.counters[k] = self.counters.get(k, 0) + amount

    def in_step(self):
        return self.current_unit >= 0 and self.units[self.current_unit][0] == "step"

    def inside(self, name):
        i = self._name_ids.get(name)
        return i is not None and any(self.name_id[s] == i for s in self._stack)

    # -- wrapping -----------------------------------------------------------

    def install(self, names):
        """Wrap the functions behind ``names``; returns self for chaining."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in names:
            found = _holders(name)
            if found is None:
                self.absent.add(name)
                continue
            original, holders = found
            self._patches += _patch(holders, self._wrapper(name, original))
        return self

    def uninstall(self):
        _unpatch(self._patches)
        self._patches = []

    def _wrapper(self, name, fn):
        after = self._after_hook(name, fn)
        before = self._before_hook(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, out, idx)
            return out

        return wrapper

    def _before_hook(self, name):
        if name == "mixture.make_batch":
            def step_boundary():
                if self.inside("model.train"):
                    self.begin_unit("step")
            return step_boundary
        if name == "model.generate_batch":
            return lambda: self.begin_unit("eval_batch")
        return None

    def _after_hook(self, name, fn):
        if name.startswith("nnkernel.op."):
            op = name.split(".")[2]
            return functools.partial(self._after_op, op)
        if name == "mixture.make_batch":
            def batch_stats(args, kwargs, batch, idx):
                self.count("make_batch.examples", len(batch.prompt_ids))
                self.count("make_batch.truncated", batch.truncated)
            return batch_stats
        if name == "model.train":
            def end_steps(args, kwargs, history, idx):
                self.current_unit = -1
            return end_steps
        if name == "model.generate_batch":
            def decode_stats(args, kwargs, preds, idx):
                self.current_unit = -1
                calls = self._children_named(idx, "model.decode")
                self.count("generate.positions", len(preds) * calls)
                self.count("generate.useful", useful_positions(preds, calls))
            return decode_stats
        if name == "tasksynth.write_task_files":
            signature = inspect.signature(fn)

            def manifest_stats(args, kwargs, paths, idx):
                out_dir = signature.bind(*args, **kwargs).arguments["out_dir"]
                with open(os.path.join(out_dir, "synth_manifest.json")) as f:
                    manifest = json.load(f)
                self.count("tasksynth.examples", sum(manifest["counts"].values()))
                self.count("tasksynth.fallbacks", sum(manifest["fallbacks"].values()))
            return manifest_stats
        return None

    def _children_named(self, idx, name):
        target = self._name_ids.get(name)
        if target is None:
            return 0
        par = np.frombuffer(self.parent, dtype=np.int32)[idx + 1:]
        ids = np.frombuffer(self.name_id, dtype=np.int32)[idx + 1:]
        return int(np.count_nonzero((par == idx) & (ids == target)))

    def _after_op(self, op, args, kwargs, out, idx):
        if op == "matmul" and self.in_step():  # 2·K multiply-adds per output element
            k = np.shape(getattr(args[0], "data", args[0]))[-1]
            self.count("matmul.flop", 2 * int(np.prod(out.data.shape)) * int(k))
        closure = getattr(out, "_backward", None)
        if closure is None or getattr(closure, "_perfbench", False):
            return  # no tape node, or one an inner op already timed
        if self.in_step():
            self.count("tape_nodes")
        name = f"nnkernel.op.{op}.bwd"
        tracer = self

        def timed(g):
            i = tracer.open(name)
            try:
                closure(g)
            finally:
                tracer.close(i)

        timed._perfbench = True
        out._backward = timed

    # -- output ---------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write every span, the name table and the unit table to ``path``."""
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=str),
            unit_kind=np.asarray([k for k, _ in self.units], dtype=str),
            unit_pass=np.asarray([p for _, p in self.units], dtype=np.int32),
            **self.arrays())
