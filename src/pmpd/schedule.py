"""Precision-switching schedules for progressive mixed-precision decoding.

A schedule maps every decode precision ``p`` to the first output-token index
generated at ``p`` (its switch point). Switch points live in the closed range
``[0, horizon]`` — ``horizon`` meaning "never used" — and must respect
precedence: a higher precision never starts after a lower one. The highest
decode precision always starts at 0.

This module owns the schedule representation, which enforces these rules
when it is built, and its JSON form, the switch-point counting formula, the
scheduler objects the generation loop consumes, and the offline search.
Phase-aware precision allocation (constant candidates, one per prefill and
decode pair) and the grid-restricted static solver (one candidate per grid
switch map) are two callers of one selection rule: keep the cheapest
candidate whose mean score meets the quality floor. :func:`score_candidates`,
the one scoring rule, which label generation shares, makes two calls of
:func:`pmpd.tinylm.decode_schedules`, the engine's one generation entry
point: the first decodes the fp16 references of all its prompts, the second
the kept prompts' candidates as ``StaticScheduler``s. That entry point
decodes the prompts in lockstep waves, prefills each prompt once per prefill
precision and decodes shared prefixes once.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from . import metrics
from .errors import ConfigError, InputError
from .quant import FULL_PRECISION, PrecisionSet
from .util import json_bool, json_int, json_int_key, parsing


@dataclass(frozen=True)
class QualityTarget:
    """Quality floor ``q_ref - tolerance`` a schedule must meet."""

    q_ref: float
    tolerance: float

    def __post_init__(self):
        if not (math.isfinite(self.q_ref) and 0 <= self.tolerance < math.inf):
            raise ConfigError(f"need a finite q_ref and a finite tolerance >= 0, got {self}")

    @property
    def floor(self) -> float:
        return self.q_ref - self.tolerance


@dataclass(frozen=True)
class SwitchGrid:
    """``n`` equally spaced candidate switch points spanning ``[0, horizon]``."""

    n: int
    horizon: int
    points: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        for name in ("n", "horizon"):
            object.__setattr__(self, name, json_int(getattr(self, name)))
        if self.n < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.n}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        # points at least one token apart, hence strictly increasing
        if self.n > self.horizon + 1:
            raise ConfigError(f"horizon {self.horizon} is too short for {self.n} grid "
                              f"points; at most {self.horizon + 1}")
        pts = tuple(int(math.floor(j * self.horizon / (self.n - 1) + 0.5))
                    for j in range(self.n))
        object.__setattr__(self, "points", pts)


class PrecisionSchedule:
    """Decode precisions plus their switch points and the prefill precision."""

    def __init__(self, precisions: PrecisionSet | Sequence[int], p_prefill: int,
                 switch_points: dict[int, int], horizon: int, feasible: bool = True):
        if not isinstance(precisions, PrecisionSet):
            precisions = PrecisionSet(tuple(precisions))
        self.precisions = precisions
        self.p_prefill = json_int(p_prefill)
        self.switch_points = {json_int(p): json_int(i) for p, i in switch_points.items()}
        self.horizon = json_int(horizon)
        self.feasible = bool(feasible)
        ps = precisions.precisions
        if sorted(self.switch_points) != sorted(ps):
            raise ConfigError(f"switch points {self.switch_points} must name exactly "
                              f"the precisions {list(ps)}")
        starts = [self.switch_points[p] for p in ps]
        if starts[0] != 0:
            raise ConfigError(f"highest decode precision {ps[0]} must start at 0, "
                              f"got {starts[0]}")
        if starts != sorted(starts) or starts[-1] > self.horizon:
            raise ConfigError(f"switch points {starts} of precisions {list(ps)} must be "
                              f"non-decreasing within [0, {self.horizon}]")

    @classmethod
    def constant(cls, p: int, horizon: int,
                 p_prefill: int | None = None) -> "PrecisionSchedule":
        return cls((p,), p if p_prefill is None else p_prefill, {p: 0}, horizon)

    @classmethod
    def two_phase(cls, p_high: int, p_low: int, switch: int, horizon: int,
                  p_prefill: int | None = None) -> "PrecisionSchedule":
        return cls(PrecisionSet((p_high, p_low)),
                   p_high if p_prefill is None else p_prefill,
                   {p_high: 0, p_low: switch}, horizon)

    def precision_at(self, i: int) -> int:
        """Lowest precision whose switch point is <= i; O(|precisions|), no allocation.
        Defined for every i >= 0 because the highest precision starts at 0."""
        for p in reversed(self.precisions.precisions):
            if self.switch_points[p] <= i:
                return p

    def token_precisions(self, n: int) -> Iterator[int]:
        """The one charging rule: token ``i`` of the first ``n`` is generated at
        ``precision_at(i)``. Lazy, so summing a 2^30-token horizon holds no list."""
        return map(self.precision_at, range(n))

    def bit_token_sum(self) -> int:
        return sum(self.token_precisions(self.horizon))

    def to_json(self) -> dict:
        return {
            "precisions": list(self.precisions.precisions),
            "prefill": self.p_prefill,
            "st": {str(p): i for p, i in self.switch_points.items()},
            "OL": self.horizon,
            "feasible": self.feasible,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PrecisionSchedule":
        with parsing("schedule JSON"):
            return cls(tuple(obj["precisions"]), obj["prefill"],
                       {json_int_key(p): i for p, i in obj["st"].items()}, obj["OL"],
                       json_bool(obj.get("feasible", True), "schedule 'feasible'"))

    def __repr__(self):
        return (f"PrecisionSchedule(precisions={list(self.precisions)}, "
                f"prefill={self.p_prefill}, st={self.switch_points}, "
                f"OL={self.horizon}, feasible={self.feasible})")


def count_schedules(horizon: int, k: int) -> int:
    """Number of distinct precedence-respecting switch-point maps for ``k``
    precisions over ``horizon`` tokens: sum over r switches of
    C(horizon, r) * C(k-1, r). Exact integer arithmetic."""
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    if k < 1:
        raise InputError(f"precision count must be >= 1, got {k}")
    return sum(math.comb(horizon, r) * math.comb(k - 1, r) for r in range(k))


def enumerate_switch_maps(precisions: Sequence[int],
                          points: Sequence[int]) -> Iterator[dict[int, int]]:
    """All precedence-respecting switch maps with the lower precisions'
    switch points drawn from ``points`` (the highest precision is pinned to 0)."""
    ps = sorted(set(int(p) for p in precisions), reverse=True)
    lower = ps[1:]
    for combo in itertools.combinations_with_replacement(sorted(points), len(lower)):
        st = {ps[0]: 0}
        st.update(dict(zip(lower, combo)))
        yield st


# ---------------------------------------------------------------------------
# runtime schedulers
# ---------------------------------------------------------------------------

class StaticScheduler:
    """Fixed schedule chosen offline; the same for every prompt."""

    def __init__(self, schedule: PrecisionSchedule):
        self.schedule = schedule

    @property
    def p_prefill(self) -> int:
        return self.schedule.p_prefill

    def resolve(self, cache) -> PrecisionSchedule:
        return self.schedule


class FixedScheduler(StaticScheduler):
    """Single-precision schedule (the uniform baselines)."""

    def __init__(self, precision: int, horizon: int = 1 << 30,
                 p_prefill: int | None = None):
        super().__init__(PrecisionSchedule.constant(precision, horizon, p_prefill))


# ---------------------------------------------------------------------------
# average bitwidth
# ---------------------------------------------------------------------------

def avg_bitwidth(subject, tokens_generated: int | None = None) -> float:
    """Token-weighted mean decode bitwidth.

    Pass a generation trace (its per-token precisions are averaged) or a
    schedule plus the number of generated tokens. Prefill is never counted.
    """
    precisions = list(subject.precisions if tokens_generated is None
                      else subject.token_precisions(tokens_generated))
    if not precisions:
        raise InputError("no generated tokens to average")
    return sum(precisions) / len(precisions)


# ---------------------------------------------------------------------------
# candidate scoring
# ---------------------------------------------------------------------------

def score_candidates(variants, prompts, candidates: Sequence[PrecisionSchedule],
                     max_new: int, eos_id: int | None = None, feature_block: int | None = None):
    """The one scoring rule: the Rouge-L F1 of each candidate's greedy output
    against each prompt's greedy full-precision reference, skipping the
    prompts whose reference is empty (just EOS). One
    :func:`pmpd.tinylm.decode_schedules` call decodes every prompt's
    reference, a second the kept prompts with all candidates as
    ``StaticScheduler``s. Returns the kept prompts' indices,
    ``scores[kept][candidate]`` and the second call's features, one dict per
    kept prompt."""
    from . import tinylm

    ref_traces, _ = tinylm.decode_schedules(variants, prompts, [FixedScheduler(FULL_PRECISION)],
                                            eos_id=eos_id, max_new=max_new)
    refs = [None if trace.termination == "eos" and len(trace.output_tokens) == 1
            else trace.output_tokens for (trace,) in ref_traces]
    kept = [n for n, ref in enumerate(refs) if ref is not None]
    traces, features = tinylm.decode_schedules(variants, [prompts[n] for n in kept],
                                               [StaticScheduler(s) for s in candidates],
                                               eos_id=eos_id, max_new=max_new,
                                               feature_block=feature_block)
    scores = [[metrics.rouge_l(trace.output_tokens, refs[n]).f1 for trace in row]
              for n, row in zip(kept, traces)]
    return kept, scores, features


# ---------------------------------------------------------------------------
# phase-aware precision allocation
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    """Mean calibration quality per (prefill, decode) pair and the chosen pair."""

    table: dict[tuple[int, int], float]
    chosen: tuple[int, int]
    q_ref: float
    tolerance: float
    fallback: bool
    skipped: int = 0

    def to_json(self) -> dict:
        return {
            "pairs": {f"{pf}/{pd}": q for (pf, pd), q in sorted(self.table.items())},
            "chosen": {"prefill": self.chosen[0], "decode": self.chosen[1]},
            "q_ref": self.q_ref,
            "tolerance": self.tolerance,
            "fallback": self.fallback,
            "skipped": self.skipped,
        }


def allocate_phase_precisions(variants, calib_prompts: Sequence[Sequence[int]],
                              target: QualityTarget, *,
                              precisions: PrecisionSet | None = None,
                              max_new: int = 32,
                              eos_id: int | None = None,
                              quality_fn: Callable[[PrecisionSchedule], float] | None = None,
                              ) -> CalibrationReport:
    """Pick the smallest (prefill, decode) precision pair meeting the floor.

    Every pair of ``precisions`` (the model's set by default) with prefill >=
    decode is a constant schedule over ``max_new`` tokens, scored by mean
    quality over the calibration prompts (or by ``quality_fn``). The winner
    minimizes decode precision first, then prefill precision. If nothing
    qualifies the highest pair is returned with the fallback flag set.
    """
    ps = variants.precisions if precisions is None else precisions
    pairs = sorted((pf, pd) for pd in ps for pf in ps if pf >= pd)
    candidates = [PrecisionSchedule.constant(pd, max_new, pf) for pf, pd in pairs]
    best, qualities, skipped = _cheapest_feasible(variants, calib_prompts, candidates,
                                                  target, max_new, eos_id, quality_fn)
    return CalibrationReport(dict(zip(pairs, qualities)),
                             (best.p_prefill, best.precisions.p_max),
                             target.q_ref, target.tolerance, not best.feasible, skipped)


# ---------------------------------------------------------------------------
# static schedule search
# ---------------------------------------------------------------------------

def solve_static(variants, valset: Sequence[Sequence[int]], target: QualityTarget,
                 grid: SwitchGrid, *, precisions: PrecisionSet, p_prefill: int,
                 eos_id: int | None = None,
                 quality_fn: Callable[[PrecisionSchedule], float] | None = None,
                 details_out: list | None = None) -> PrecisionSchedule:
    """Grid-restricted offline schedule search.

    Enumerates every precedence-respecting assignment of grid points to the
    lower precisions, scores each schedule by mean generation quality against
    full-precision references over the validation set (or by ``quality_fn``),
    and returns the cheapest feasible schedule (fewest bit-tokens, then
    earlier switch points in precision order). Infeasible searches return
    the all-high schedule flagged infeasible. ``details_out`` receives one
    record per candidate.
    """
    candidates = [PrecisionSchedule(precisions, p_prefill, st, grid.horizon)
                  for st in enumerate_switch_maps(precisions.precisions, grid.points)]
    best, _, _ = _cheapest_feasible(variants, valset, candidates, target, grid.horizon,
                                    eos_id, quality_fn, details_out)
    return best


# ---------------------------------------------------------------------------
# the one selection rule
# ---------------------------------------------------------------------------

def _cheapest_feasible(variants, prompts, candidates: Sequence[PrecisionSchedule],
                       target: QualityTarget, max_new: int, eos_id: int | None,
                       quality_fn: Callable[[PrecisionSchedule], float] | None,
                       details_out: list | None = None):
    """Score ``candidates`` and pick the cheapest one meeting the floor, by
    (bit-token sum, prefill precision, switch points in precision order).
    When none does, the costliest candidate by that key, which is the
    all-high one in both callers, is returned flagged infeasible.

    A candidate's quality is ``quality_fn(candidate)`` when given, else the
    mean of its :func:`score_candidates` column over the kept prompts.

    Returns the choice, the qualities in candidate order and the number of
    prompts skipped for an empty reference.
    """
    if quality_fn is not None:
        qualities, skipped = [float(quality_fn(s)) for s in candidates], 0
    else:
        if not prompts:
            raise InputError("calibration/validation prompt set is empty")
        kept, scores, _ = score_candidates(variants, prompts, candidates, max_new, eos_id)
        if not kept:
            raise InputError("every calibration/validation prompt produced an empty reference")
        qualities, skipped = [sum(c) / len(kept) for c in zip(*scores)], len(prompts) - len(kept)

    def cost(s):
        return (s.bit_token_sum(), s.p_prefill,
                tuple(s.switch_points[p] for p in s.precisions))

    feasible = [q >= target.floor for q in qualities]
    if details_out is not None:
        for s, q, ok in zip(candidates, qualities, feasible):
            details_out.append({"st": {str(p): s.switch_points[p] for p in s.precisions},
                                "quality": q, "bit_token_sum": s.bit_token_sum(),
                                "feasible": ok})
    met = [s for s, ok in zip(candidates, feasible) if ok]
    if met:
        return min(met, key=cost), qualities, skipped
    top = max(candidates, key=cost)
    return (PrecisionSchedule(top.precisions, top.p_prefill, top.switch_points, top.horizon,
                              feasible=False), qualities, skipped)
