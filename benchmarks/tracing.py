"""Outside-in instrumentation for the pmpd benchmark.

Everything here works by replacing the module attribute a caller looks up at
call time. pmpd imports several functions by name (``tinylm`` holds its own
``dequantize`` and ``parse_model``, ``learnsched`` its own ``rouge_l``) and
imports ``tinylm.generate``/``prefill`` lazily inside ``schedule`` and
``learnsched`` functions, so the attribute wrapped is the one in the calling
module. Nothing under ``src/`` is changed.

* :class:`Stamps` is timestamp-only: decode-step entry times within each
  request the benchmark sends. Untraced runs use it for TTFT and
  inter-token gaps.
* :class:`Tracer` records spans (name, start, end, parent) around the public
  functions of quant, tinylm, schedule, learnsched, metrics and perf, keeps
  them in memory, and derives the per-module counters that need call
  arguments (precision, prompt, schedule). Only traced runs install it.
"""
from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from pmpd import learnsched, metrics, perf, quant, schedule, tinylm

# roots whose spans feed the call counts; oracle, probe and perf-loop work
# is excluded from counts but still contributes per-call latencies
COUNT_ROOTS = ("bench.setup", "bench.pass")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._undo)

    def wrap(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


@dataclass
class Timing:
    ttft_s: float
    gaps_s: list[float]
    total_s: float


class Stamps:
    """Timestamp-only wrapper on ``tinylm.decode_step``; the benchmark
    brackets each request it sends with :meth:`begin` and :meth:`finish`."""

    def __init__(self):
        self.steps: list[float] = []
        self.calls = 0

    def install(self, patches: Patches) -> None:
        steps = self.steps

        def make_step(fn):
            @functools.wraps(fn)
            def decode_step(*a, **k):
                steps.append(perf_counter())
                return fn(*a, **k)
            return decode_step

        patches.wrap(tinylm, "decode_step", make_step)

    def begin(self) -> float:
        self.calls += len(self.steps)  # stamps of decode steps outside a request
        self.steps.clear()
        return perf_counter()

    def finish(self, t0: float) -> Timing:
        """TTFT runs to the first decode-step entry; gaps are the times
        between entries plus the last entry to the return."""
        t1 = perf_counter()
        s = self.steps
        self.calls += len(s) + 1
        gaps = [b - a for a, b in zip(s, s[1:])]
        if s:
            gaps.append(t1 - s[-1])
        timing = Timing((s[0] if s else t1) - t0, gaps, t1 - t0)
        s.clear()
        return timing


def stamp_cost_s(n: int = 20000) -> float:
    """Seconds one timestamp wrapper adds to a call, by microbenchmark."""
    def f(x):
        return x

    steps: list[float] = []

    def wrapped(x):
        steps.append(perf_counter())
        return f(x)

    def loop(fn):
        t = perf_counter()
        for i in range(n):
            fn(i)
        return perf_counter() - t

    best = min(loop(wrapped) - loop(f) for _ in range(5))
    return max(best, 0.0) / n


@dataclass
class PromptSteps:
    steps: int = 0
    keys: set = field(default_factory=set)
    full: bool = True


@dataclass
class Scope:
    """Work done inside one schedule/learnsched search call."""

    module: str
    stage: str
    root: str
    seconds: float = 0.0
    candidates: set = field(default_factory=set)
    ref_generations: int = 0
    ref_regenerations: int = 0
    prefills: int = 0
    feature_prefills: int = 0
    steps: int = 0
    unique: set = field(default_factory=set)
    prompts: dict = field(default_factory=dict)


@dataclass
class _Gen:
    scope: Scope | None
    prompt: tuple
    ref: bool
    key: int


class Tracer:
    """In-memory spans plus argument-aware counters."""

    def __init__(self):
        # span: [name, start, end, parent index, root name, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._gens: list[_Gen] = []
        self._scope: Scope | None = None
        self.stage = ""
        self.scopes: list[Scope] = []
        self.seen_refs: set = set()
        self.weights_calls = 0
        self.patches = Patches()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        self.spans.append([name, perf_counter(), 0.0, parent, root, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, stage: str | None = None):
        prev = self.stage
        if stage is not None:
            self.stage = stage
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.stage = prev

    def _counting(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0] in COUNT_ROOTS

    def _spanned(self, name: str, attrs=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **k):
                idx = self._open(name)
                try:
                    out = fn(*a, **k)
                finally:
                    self._close(idx)
                if attrs is not None:
                    self.spans[idx][5] = attrs(a, k, out)
                return out
            return wrapper
        return make

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        if self.patches.active:
            return
        w = self.patches.wrap

        # bit-plane bytes from tensor sizes: parsing reads every plane,
        # dequantizing at precision p unpacks the top p
        def parse_attrs(a, k, out):
            return {"bytes": sum(t.store.payload_bytes for t in out[0].values())}

        def dequant_attrs(via):
            def attrs(a, k, out):
                qt, p = _arg(a, k, 0, "qt"), _arg(a, k, 1, "p")
                return {"p": p, "bytes": p * qt.store.payload_bytes // qt.p_max, "via": via}
            return attrs

        w(tinylm, "parse_model", self._spanned("quant.parse_model", parse_attrs))
        w(quant, "parse_model", self._spanned("quant.parse_model", parse_attrs))
        w(tinylm, "dequantize", self._spanned("quant.dequantize", dequant_attrs("tinylm")))
        w(quant, "dequantize", self._spanned("quant.dequantize", dequant_attrs("quant")))
        w(tinylm.ModelVariants, "load", self._spanned("tinylm.load"))
        w(tinylm.ModelVariants, "weights", self._count_weights)
        w(tinylm, "generate", self._wrap_generate)
        w(tinylm, "prefill", self._wrap_prefill)
        w(tinylm, "decode_step", self._wrap_decode_step)
        w(tinylm, "sample", self._spanned("tinylm.sample"))
        w(schedule, "solve_static", self._wrap_scope("schedule", "schedule.solve_static"))
        w(schedule, "allocate_phase_precisions",
          self._wrap_scope("schedule", "schedule.allocate_phase_precisions"))
        w(learnsched, "generate_labels",
          self._wrap_scope("learnsched", "learnsched.generate_labels"))
        w(learnsched, "train", self._spanned("learnsched.train"))
        w(learnsched, "predict_schedule", self._spanned("learnsched.predict_schedule"))
        w(learnsched, "example_loss_and_grads",
          self._spanned("learnsched.example_loss_and_grads"))
        w(learnsched, "rouge_l", self._spanned("metrics.rouge_l"))
        w(metrics, "rouge_l", self._spanned("metrics.rouge_l"))
        w(perf, "pipeline_perf", self._spanned("perf.pipeline_perf"))
        w(perf, "weighted_gpu_latency", self._spanned("perf.weighted_gpu_latency"))

    def uninstall(self) -> None:
        self.patches.restore()

    def _count_weights(self, fn):
        @functools.wraps(fn)
        def weights(model, name, p):
            if self._counting():
                self.weights_calls += 1
            return fn(model, name, p)
        return weights

    def _wrap_scope(self, module: str, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **k):
                root = self.spans[self._stack[0]][0] if self._stack else ""
                scope = Scope(module, self.stage, root)
                self.scopes.append(scope)
                prev, self._scope = self._scope, scope
                idx = self._open(name)
                try:
                    return fn(*a, **k)
                finally:
                    self._close(idx)
                    self._scope = prev
                    scope.seconds = self.spans[idx][2] - self.spans[idx][1]
            return wrapper
        return make

    def _wrap_generate(self, fn):
        @functools.wraps(fn)
        def generate(*a, **k):
            prompt = tuple(_arg(a, k, 1, "prompt"))
            sched = _arg(a, k, 2, "scheduler")
            max_new = _arg(a, k, 5, "max_new", 64)
            ref = sched.p_prefill == tinylm.FULL_PRECISION
            gen = _Gen(self._scope, prompt, ref, hash((prompt, sched.p_prefill)))
            self._gens.append(gen)
            idx = self._open("tinylm.generate")
            try:
                out = fn(*a, **k)
            finally:
                self._close(idx)
                self._gens.pop()
            scope = gen.scope
            if scope is not None:
                if ref:
                    scope.ref_generations += 1
                    if (prompt, max_new) in self.seen_refs:
                        scope.ref_regenerations += 1
                    self.seen_refs.add((prompt, max_new))
                else:
                    st = getattr(sched, "schedule", None)
                    if st is not None:
                        scope.candidates.add(
                            (sched.p_prefill, tuple(sorted(st.switch_points.items()))))
                    if out.termination != "length":
                        scope.prompts.setdefault(prompt, PromptSteps()).full = False
            return out
        return generate

    def _wrap_prefill(self, fn):
        @functools.wraps(fn)
        def prefill(*a, **k):
            idx = self._open("tinylm.prefill")
            try:
                out = fn(*a, **k)
            finally:
                self._close(idx)
            prompt = _arg(a, k, 2, "prompt")
            self.spans[idx][5] = {"p": _arg(a, k, 1, "p"), "n": len(prompt)}
            scope = self._scope
            if scope is not None:
                gen = self._gens[-1] if self._gens else None
                if gen is None:
                    scope.feature_prefills += 1
                elif not gen.ref:
                    scope.prefills += 1
            return out
        return prefill

    def _wrap_decode_step(self, fn):
        @functools.wraps(fn)
        def decode_step(*a, **k):
            p = _arg(a, k, 1, "p")
            idx = self._open("tinylm.decode_step")
            try:
                out = fn(*a, **k)
            finally:
                self._close(idx)
            self.spans[idx][5] = {"p": p}
            gen = self._gens[-1] if self._gens else None
            if gen is not None and gen.scope is not None:
                scope = gen.scope
                # a step is identified by its prompt, prefill precision and
                # the precision of every step up to and including it
                gen.key = hash((gen.key, p))
                if not gen.ref:
                    scope.steps += 1
                    scope.unique.add(gen.key)
                    ps = scope.prompts.setdefault(gen.prompt, PromptSteps())
                    ps.steps += 1
                    ps.keys.add(gen.key)
            return out
        return decode_step

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start/end in microseconds from the
        first span, parent index (-1 for roots) and attributes."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, attrs in self.spans:
                rec = {"name": name, "start_us": round((start - t0) * 1e6, 1),
                       "end_us": round((end - t0) * 1e6, 1), "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def durations(self, name: str, counted: bool | None = None, **match) -> list[float]:
        """Durations (s) of spans called ``name`` whose attributes match;
        ``counted`` restricts to (True) or excludes (False) the counting roots."""
        out = []
        for n, start, end, _, root, attrs in self.spans:
            if n != name:
                continue
            if counted is not None and (root in COUNT_ROOTS) != counted:
                continue
            if match and (attrs is None or any(attrs.get(k) != v for k, v in match.items())):
                continue
            out.append(end - start)
        return out

    def counted(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[4] in COUNT_ROOTS]


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_metrics(tr: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-module metrics of one traced run, and the names of those that are
    probe figures.

    Counts cover the spans under the set-up and the measured pass. Per-call
    latencies come from those spans too, or, for a call the workload never
    made, from every span of the run, which then means the probe's calls:
    such a figure is listed as a probe figure, measured at the probe's sizes
    rather than the workload's.
    """
    m: dict[str, tuple[float, str]] = {}
    probed: list[str] = []
    ms, us = 1e3, 1e6

    def lat(metric, name, q, scale, **match):
        own = tr.durations(name, counted=True, **match)
        if not own:
            probed.append(metric)
        m[metric] = (_p(own or tr.durations(name, **match), q) * scale,
                     "ms" if scale == ms else "us")

    lat("quant.parse_model.ms", "quant.parse_model", 50, ms)
    deq = tr.counted("quant.dequantize")
    m["quant.dequantize.calls"] = (len(deq), "count")
    for p in (4, 3, 2):
        lat(f"quant.dequantize.p{p}.ms_p50", "quant.dequantize", 50, ms, p=p)
    plane_bytes = sum(s[5]["bytes"] for s in tr.counted("quant.parse_model"))
    plane_bytes += sum(s[5]["bytes"] for s in deq)
    m["quant.plane_bytes_read"] = (plane_bytes, "bytes")

    lat("tinylm.load.ms", "tinylm.load", 50, ms)
    pre = tr.counted("tinylm.prefill")
    m["tinylm.prefill.calls"] = (len(pre), "count")
    m["tinylm.prefill.tokens"] = (sum(s[5]["n"] for s in pre), "count")
    lat("tinylm.prefill.ms_p50", "tinylm.prefill", 50, ms)
    lat("tinylm.prefill.ms_p90", "tinylm.prefill", 90, ms)
    m["tinylm.decode_step.calls"] = (len(tr.counted("tinylm.decode_step")), "count")
    for p in (16, 4, 3, 2):
        lat(f"tinylm.decode_step.p{p}.ms_p50", "tinylm.decode_step", 50, ms, p=p)
        lat(f"tinylm.decode_step.p{p}.ms_p99", "tinylm.decode_step", 99, ms, p=p)
    lat("tinylm.sample.us_p50", "tinylm.sample", 50, us)
    m["tinylm.weights.calls"] = (tr.weights_calls, "count")
    misses = sum(1 for s in deq if s[5]["via"] == "tinylm")
    m["tinylm.weights.miss_ratio"] = (_ratio(misses, tr.weights_calls), "ratio")

    for module in ("schedule", "learnsched"):
        scopes = [s for s in tr.scopes if s.module == module and s.root in COUNT_ROOTS]
        steps = sum(s.steps for s in scopes)
        m[f"{module}.reference_generations"] = (sum(s.ref_generations for s in scopes), "count")
        m[f"{module}.reference_regenerations"] = (
            sum(s.ref_regenerations for s in scopes), "count")
        m[f"{module}.prefills"] = (sum(s.prefills for s in scopes), "count")
        m[f"{module}.decode_steps"] = (steps, "count")
        m[f"{module}.unique_step_ratio"] = (
            _ratio(sum(len(s.unique) for s in scopes), steps), "ratio")
        if module == "schedule":
            cands = sum(len(s.candidates) for s in scopes)
            m["schedule.candidates"] = (cands, "count")
            timed = [s for s in tr.scopes if s.module == module and s.candidates]
            own = [s for s in timed if s.root in COUNT_ROOTS]
            if not own:
                probed.append("schedule.ms_per_candidate")
                own = timed
            m["schedule.ms_per_candidate"] = (
                _ratio(sum(s.seconds for s in own), sum(len(s.candidates) for s in own)) * ms,
                "ms")
        else:
            m["learnsched.feature_prefills"] = (sum(s.feature_prefills for s in scopes), "count")

    c12 = [s for s in tr.scopes if s.stage == "solve_c12" and s.root in COUNT_ROOTS]
    full = [ps for s in c12 for ps in s.prompts.values() if ps.full]
    m["schedule.c12.decode_steps_per_prompt"] = (
        _ratio(sum(ps.steps for ps in full), len(full)), "count")
    m["schedule.c12.unique_steps_per_prompt"] = (
        _ratio(sum(len(ps.keys) for ps in full), len(full)), "count")

    for fn in ("learnsched.predict_schedule", "learnsched.example_loss_and_grads",
               "metrics.rouge_l"):
        lat(f"{fn}.us_p50", fn, 50, us)
    m["metrics.rouge_l.calls"] = (len(tr.counted("metrics.rouge_l")), "count")
    return m, probed
