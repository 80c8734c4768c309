"""Span tracing from outside the library.

``LayerTracer`` replaces module attributes of ``selfdistill`` (the names
callers reach at call time, such as ``distill.classify`` or ``ad.gelu``) with
thin wrappers that record one span per call, and puts every original back in
``restore``. No file of the library changes.

A span is (name, start, end, parent, run): ``parent`` is the index of the
span that was open when this one began (-1 at top level) and ``run`` is the
index of the ``fine_tune`` call the span belongs to. Spans live in flat
in-memory arrays and are written once, by ``save``. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import weakref
from array import array
from time import perf_counter

import numpy as np

AUTODIFF_PRIMS = ("matmul", "add", "gelu", "layer_norm", "softmax", "transpose",
                  "reshape", "embedding", "cross_entropy", "mse")


class LayerTracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._run_id = -1
        self._patches: list[tuple[object, str, object]] = []
        # per-call facts the spans alone do not carry
        self.tape_nodes: list[int] = []
        self.counters: list[dict] = []
        self.train_batches = 0
        self.window_useful = 0
        self._ring_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self._run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Name id of the innermost open span, -1 outside every span."""
        top = self._stack[-1]
        return self.name[top] if top >= 0 else -1

    # -- patching ---------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return original(*args, **kwargs)
            finally:
                close(i)

        self._install(owner, attr, traced)

    def restore(self) -> list[str]:
        """Put every original attribute back; return any that did not stick."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        stuck = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches
                 if getattr(owner, attr) is not original]
        self._patches.clear()
        return stuck

    def install_layers(self, sd) -> None:
        """Wrap the layer boundaries of the imported ``selfdistill`` package.

        Each name is patched where its caller looks it up: ``distill`` and
        ``harness`` import functions into their own namespace, the encoder
        and the loss reach primitives through the ``autodiff`` module.
        """
        distill, harness, ad = sd.distill, sd.harness, sd.autodiff
        for attr in ("train_step", "sda_teacher", "sdv_teacher_logits",
                     "evaluate_params"):
            self.wrap(distill, attr, f"distill.{attr}")
        self.wrap(distill, "predict_proba", "encoder.predict_proba")
        self.wrap(distill, "adamw_step", "optim.adamw_step")
        self.wrap(distill, "accumulate", "optim.accumulate")
        self.wrap(distill, "ring_push", "ensemble.ring_push")
        self.wrap(sd.encoder.ParameterSet, "copy", "encoder.params_copy")
        for prim in AUTODIFF_PRIMS + ("backward",):
            self.wrap(ad, prim, f"autodiff.{prim}")
        self.wrap(harness, "build_task", "harness.build_task")
        self._wrap_classify(distill)
        self._wrap_window_mean(distill)
        self._wrap_iter_batches(distill)
        self._wrap_fine_tune(harness)

    def _wrap_classify(self, distill) -> None:
        """Student calls (train mode, on a tape) and teacher calls apart;
        also counts the tape nodes one student forward records."""
        original = distill.classify
        train_id = self.name_id("encoder.classify_train")
        eval_id = self.name_id("encoder.classify_eval")
        open_, close, nodes = self.open, self.close, self.tape_nodes

        def traced(params, batch, config, train_mode=False, tape=None, rng=None):
            before = len(tape) if tape is not None else 0
            i = open_(train_id if train_mode else eval_id)
            try:
                return original(params, batch, config, train_mode=train_mode,
                                tape=tape, rng=rng)
            finally:
                close(i)
                if tape is not None:
                    nodes.append(len(tape) - before)

        self._install(distill, "classify", traced)

    def _wrap_window_mean(self, distill) -> None:
        """A call is useful when its ring gained a snapshot since the last
        call on that ring, i.e. when it yields a new teacher."""
        original = distill.window_mean
        nid = self.name_id("ensemble.window_mean")
        open_, close, seen = self.open, self.close, self._ring_seen

        def traced(ring):
            if seen.get(ring) != ring.insertions:
                self.window_useful += 1
                seen[ring] = ring.insertions
            i = open_(nid)
            try:
                return original(ring)
            finally:
                close(i)

        self._install(distill, "window_mean", traced)

    def _wrap_iter_batches(self, distill) -> None:
        """Time each ``next()`` of the training loop's batch iterator.

        Only iterators created directly by ``fine_tune`` are timed; the
        batches ``evaluate_params`` draws count inside its own span.
        """
        original = distill.iter_batches
        nid = self.name_id("data.next")
        fine_tune_id = self.name_id("harness.fine_tune")
        open_, close = self.open, self.close

        def timed(gen):
            while True:
                i = open_(nid)
                try:
                    batch = next(gen)
                except StopIteration:
                    return
                finally:
                    close(i)
                self.train_batches += 1
                yield batch

        def traced(*args, **kwargs):
            gen = original(*args, **kwargs)
            return timed(gen) if self.current() == fine_tune_id else gen

        self._install(distill, "iter_batches", traced)

    def _wrap_fine_tune(self, harness) -> None:
        """One run id per fine-tune; keeps each run's forward counters."""
        original = harness.fine_tune
        nid = self.name_id("harness.fine_tune")
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            self._run_id += 1
            i = open_(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                close(i)
            self.counters.append(dict(result.report.counters))
            return result

        self._install(harness, "fine_tune", traced)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        name = np.array(self.name, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {nm: {"calls": int(calls[j]), "busy_s": float(busy[j]),
                     "self_s": float(own[j])}
                for j, nm in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        sel = np.array(self.name) == self._ids.get(name, -1)
        return np.array(self.end)[sel] - np.array(self.start)[sel]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), run=np.array(self.run),
                 start=np.array(self.start), end=np.array(self.end))
