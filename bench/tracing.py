"""Instrument skewtrain from outside, without editing its sources.

Every layer boundary is a public name that one skewtrain module calls in
another (``skewtrain.harness.backward``, ``skewtrain.models.op_apply``,
``skewtrain.optim.sgd_update``, ...). The installers here rebind those
names to thin wrappers for the life of an ``ExitStack`` and restore the
originals when it closes, so the code under test is the code in ``src/``.

Two wrappers exist:

* ``StepClock`` is installed for every timed round. It puts one timer
  around each ``harness.train_model`` call and counts optimizer steps
  (``sgd_update`` calls), which gives ms per step per method preset.
* ``Tracer`` is installed only for traced rounds. It records a span per
  call (name, start, end, parent span, trial id), keeps per-layer call
  counts, total and self time, and a few work counters read from the
  arguments and results at the boundary.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

# Calls made thousands of times per training step are aggregated but not
# stored as individual spans, so a traced run keeps a bounded span list.
MAX_SPANS = 200_000


def preset_of(config) -> str:
    """Name the method preset an ExperimentConfig was built from."""
    m = config.method
    if m.joint_ssl:
        return "joint_ssl"
    if m.sam.mode == "sam_a_paper":
        return "sam_a_smoothed" if m.loss == "smoothed" else "sam_a"
    if m.resample:
        return "resample"
    if m.sam.mode == "off" and m.loss == "ce":
        return "erm"
    return "other"


@contextmanager
def rebound(owner, attr: str, replacement):
    """Temporarily replace owner.attr; always restores the original."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class StepClock:
    """One timer per training trial plus an optimizer-step counter.

    Each trial also starts a new piece of the round (see run.Segments).
    """

    def __init__(self, segments):
        self.segments = segments
        self.steps = 0
        self.trials: list[tuple[str, float, int]] = []  # (preset, seconds, steps)

    def install(self, stack: ExitStack, sk) -> None:
        clock = self
        real_train = sk.harness.train_model

        @functools.wraps(real_train)
        def train_model(config, seed, *args, **kwargs):
            if clock.segments.cutting:
                clock.segments.cut()
            steps0 = clock.steps
            t0 = time.perf_counter()
            model = real_train(config, seed, *args, **kwargs)
            clock.trials.append((preset_of(config), time.perf_counter() - t0, clock.steps - steps0))
            return model

        stack.enter_context(rebound(sk.harness, "train_model", train_model))
        # sam_step calls optim.sgd_update; the plain path calls harness.sgd_update.
        for module in (sk.harness, sk.optim):
            real_sgd = getattr(module, "sgd_update")

            def sgd_update(*args, _real=real_sgd, **kwargs):
                clock.steps += 1
                return _real(*args, **kwargs)

            stack.enter_context(rebound(module, "sgd_update", sgd_update))

    def ms_per_step(self) -> dict[str, float]:
        """Median over trials of trial seconds / trial steps, per preset, in ms."""
        per: dict[str, list[float]] = defaultdict(list)
        for preset, seconds, steps in self.trials:
            if steps:
                per[preset].append(1000.0 * seconds / steps)
        return {p: statistics.median(v) for p, v in per.items()}


class Tracer:
    """In-memory spans with self time, per-layer totals and counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list = []  # [layer, start, end, parent_id, trial]
        self.spans_dropped = 0
        self.trial = -1
        self._stack: list[list] = []  # [layer, start, child_s, span_id]

    # -- span bookkeeping -------------------------------------------------

    def enter(self, layer: str, keep: bool = True) -> None:
        sid = -1
        if keep:
            if len(self.spans) < MAX_SPANS:
                sid = len(self.spans)
                parent = self._stack[-1][3] if self._stack else -1
                self.spans.append([layer, 0.0, 0.0, parent, self.trial])
            else:
                self.spans_dropped += 1
        self._stack.append([layer, time.perf_counter(), 0.0, sid])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, child, sid = self._stack.pop()
        duration = end - start
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if sid >= 0:
            self.spans[sid][1] = start
            self.spans[sid][2] = end

    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def unwind(self) -> None:
        """Close spans left open by an exception inside a layer."""
        while self._stack:
            self.exit()

    @contextmanager
    def span(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer: str, keep: bool = True, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(layer, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def patch(self, stack: ExitStack, owner, attr: str, layer: str, keep=True, after=None):
        stack.enter_context(rebound(owner, attr, self.wrap(getattr(owner, attr), layer, keep, after)))

    # -- results ----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "trial": trial}
            for name, start, end, parent, trial in self.spans
        ]


class _TracedIterator:
    """Times each next() of an iterator as one span."""

    def __init__(self, inner, tracer: Tracer, layer: str):
        self._inner = inner
        self._tracer = tracer
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.enter(self._layer)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit()


def _count(key: str, amount=1):
    def after(tracer, args, result):
        tracer.counts[key] += amount(args, result) if callable(amount) else amount

    return after


def _file_bytes(arg_index: int):
    return lambda args, result: os.path.getsize(args[arg_index])


def install_tracing(stack: ExitStack, tracer: Tracer, sk) -> None:
    """Rebind every traced layer boundary for the life of ``stack``.

    ``sk`` is a namespace holding the imported skewtrain modules. A
    function imported by name into several modules is rebound in each
    module that calls it, so every call site goes through one wrapper.
    """
    ad, models, losses, optim, data, diag, harness, cli = (
        sk.autodiff, sk.models, sk.losses, sk.optim, sk.data, sk.diagnostics, sk.harness, sk.cli,
    )
    patch = functools.partial(tracer.patch, stack)

    # autodiff: the tape. op_apply and leaf creation are per-op hot calls.
    for owner in (ad, models):
        patch(owner, "op_apply", "autodiff.op_apply", keep=False)
    patch(ad.Tape, "leaf", "autodiff.Tape.leaf", keep=False)

    def after_backward(tr, args, result):
        tr.counts["autodiff.tape_nodes"] += len(args[0].nodes)
        # The training closure creates one Tape and ends with backward, so
        # the span opened at Tape() below closes here.
        if tr.top() == "harness.loss_closure":
            tr.exit()

    patch(harness, "backward", "autodiff.backward", after=after_backward)

    real_tape = harness.Tape

    def open_closure_tape(*args, **kwargs):
        tracer.enter("harness.loss_closure")
        return real_tape(*args, **kwargs)

    stack.enter_context(rebound(harness, "Tape", open_closure_tape))

    # models
    for owner in (harness, models):
        patch(owner, "forward_stack", "models.forward_stack")
    rows = _count("models.mlp_predict.rows", lambda args, result: len(args[1]))
    for owner in (harness, diag, cli, models):
        patch(owner, "mlp_predict", "models.mlp_predict", after=rows)
    for owner in (harness, cli):
        patch(owner, "named_to_mlp", "models.named_to_mlp")
    patch(models, "save_checkpoint", "models.save_checkpoint",
          after=_count("models.save_checkpoint.bytes", _file_bytes(0)))
    patch(cli, "load_checkpoint", "models.load_checkpoint")

    # losses
    for name in ("cross_entropy_vec", "smoothed_targets", "vicreg_loss", "one_hot"):
        patch(harness, name, f"losses.{name}")

    # optim: sam_step calls sam_perturb, sgd_update and ema_update through optim.
    def after_sam(tr, args, result):
        tr.counts["optim.sam_steps"] += 1
        tr.counts["optim.ascent_skipped"] += int(result[2].ascent_skipped)

    patch(harness, "sam_step", "optim.sam_step", after=after_sam)
    patch(optim, "sam_perturb", "optim.sam_perturb")
    steps = _count("harness.steps")
    for owner in (harness, optim):
        patch(owner, "sgd_update", "optim.sgd_update", after=steps)
        patch(owner, "ema_update", "optim.ema_update")
    patch(harness, "cosine_lr", "optim.cosine_lr")

    # data
    real_sampler = harness.make_balanced_sampler

    def make_balanced_sampler(*args, **kwargs):
        return _TracedIterator(real_sampler(*args, **kwargs), tracer, "data.balanced_batch")

    stack.enter_context(rebound(harness, "make_balanced_sampler", make_balanced_sampler))
    patch(harness, "augment_two_views", "data.augment_two_views")
    curated = _count("data.curate_exponential.calls")
    for owner in (harness, cli):
        patch(owner, "curate_exponential", "data.curate_exponential", after=curated)
        patch(owner, "load_csv", "data.load_csv")
        patch(owner, "class_profile", "data.class_profile")
    patch(cli, "save_csv", "data.save_csv")
    patch(harness, "gen_gaussian_mixture", "data.gen_gaussian_mixture")

    # diagnostics
    patch(cli, "boundary_grid", "diagnostics.boundary_grid")
    patch(diag.BoundaryGrid, "to_csv", "diagnostics.BoundaryGrid.to_csv",
          after=_count("diagnostics.BoundaryGrid.to_csv.bytes", _file_bytes(1)))
    patch(diag, "minority_margin", "diagnostics.minority_margin",
          after=_count("diagnostics.minority_margin.points", lambda args, result: len(args[1])))
    for owner in (harness, cli):
        patch(owner, "collapse_report", "diagnostics.collapse_report")
    patch(harness, "metrics_report", "diagnostics.metrics_report")

    # harness: the trial is the unit that spans share an id over.
    def start_trial(fn):
        @functools.wraps(fn)
        def train_model(*args, **kwargs):
            tracer.trial += 1
            tracer.counts["harness.trials"] += 1
            return fn(*args, **kwargs)

        return train_model

    patch(harness, "train_model", "harness.train_model")
    stack.enter_context(rebound(harness, "train_model", start_trial(harness.train_model)))
    for name in ("evaluate_model", "run_training", "build_pools", "curate_test_split",
                 "_iter_batches", "_write_json", "run_all_seeds", "run_sweep", "run_ratio_grid"):
        patch(harness, name, "harness." + name.lstrip("_"))
    for name in ("run_all_seeds", "run_sweep"):
        patch(cli, name, "harness." + name)

