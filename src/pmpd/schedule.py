"""Precision-switching schedules for progressive mixed-precision decoding.

A schedule maps every decode precision ``p`` to the first output-token index
generated at ``p`` (its switch point). Switch points live in the closed range
``[0, horizon]`` — ``horizon`` meaning "never used" — and must respect
precedence: a higher precision never starts after a lower one. The highest
decode precision always starts at 0.

This module owns the schedule representation and JSON form, the validator,
the switch-point counting formula, phase-aware precision allocation, the
grid-restricted static solver and its exhaustive brute-force oracle, and the
scheduler objects the generation loop consumes.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, InputError
from .quant import FULL_PRECISION, PrecisionSet


@dataclass(frozen=True)
class QualityTarget:
    """Quality floor ``q_ref - tolerance`` a schedule must meet."""

    q_ref: float
    tolerance: float
    metric: str = "rouge_l_f1"

    def __post_init__(self):
        if self.tolerance < 0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")

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
        if self.n < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.n}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        pts = tuple(int(math.floor(j * self.horizon / (self.n - 1) + 0.5))
                    for j in range(self.n))
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ConfigError(
                f"grid points must be strictly increasing; horizon {self.horizon} "
                f"is too short for {self.n} points: {pts}"
            )
        object.__setattr__(self, "points", pts)


class PrecisionSchedule:
    """Decode precisions plus their switch points and the prefill precision."""

    def __init__(self, precisions: PrecisionSet | Sequence[int], p_prefill: int,
                 switch_points: dict[int, int], horizon: int, feasible: bool = True):
        if not isinstance(precisions, PrecisionSet):
            precisions = PrecisionSet(tuple(precisions))
        self.precisions = precisions
        self.p_prefill = int(p_prefill)
        self.switch_points = {int(p): int(i) for p, i in switch_points.items()}
        self.horizon = int(horizon)
        self.feasible = bool(feasible)

    @classmethod
    def constant(cls, p: int, horizon: int, p_prefill: int | None = None,
                 feasible: bool = True) -> "PrecisionSchedule":
        return cls((p,), p if p_prefill is None else p_prefill, {p: 0}, horizon, feasible)

    @classmethod
    def two_phase(cls, p_high: int, p_low: int, switch: int, horizon: int,
                  p_prefill: int | None = None) -> "PrecisionSchedule":
        return cls(PrecisionSet((p_high, p_low)),
                   p_high if p_prefill is None else p_prefill,
                   {p_high: 0, p_low: switch}, horizon)

    def precision_at(self, i: int) -> int:
        """Lowest precision whose switch point is <= i; O(|precisions|), no allocation."""
        for p in reversed(self.precisions.precisions):
            if self.switch_points[p] <= i:
                return p
        # unreachable for a valid schedule: the highest precision starts at 0
        return self.precisions.p_max

    def validate(self) -> list[str]:
        """All violated constraints, empty when the schedule is well formed."""
        ps = self.precisions.precisions
        violations = []
        for p in ps:
            if p not in self.switch_points:
                violations.append(f"precision {p} has no switch point")
        covered = [p for p in ps if p in self.switch_points]
        for p in covered:
            st = self.switch_points[p]
            if not 0 <= st <= self.horizon:
                violations.append(
                    f"switch point of precision {p} is {st}, outside [0, {self.horizon}]"
                )
        for hi, lo in itertools.combinations(covered, 2):
            if hi > lo and self.switch_points[hi] > self.switch_points[lo]:
                violations.append(
                    f"precedence violated: {hi} > {lo} but switch "
                    f"{self.switch_points[hi]} > {self.switch_points[lo]}"
                )
        if ps and ps[0] in self.switch_points and self.switch_points[ps[0]] != 0:
            violations.append(
                f"highest decode precision {ps[0]} must start at 0, "
                f"got {self.switch_points[ps[0]]}"
            )
        return violations

    def bit_token_sum(self, tokens: int | None = None) -> int:
        n = self.horizon if tokens is None else tokens
        return sum(self.precision_at(i) for i in range(n))

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
        try:
            return cls(tuple(obj["precisions"]), obj["prefill"],
                       {int(p): int(i) for p, i in obj["st"].items()},
                       obj["OL"], obj.get("feasible", True))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed schedule JSON: {exc}") from exc

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

    @property
    def horizon(self) -> int:
        return self.schedule.horizon

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
    if tokens_generated is None:
        precisions = list(subject.precisions)
        if not precisions:
            raise InputError("trace has no generated tokens")
        return sum(precisions) / len(precisions)
    if tokens_generated < 1:
        raise InputError(f"tokens_generated must be >= 1, got {tokens_generated}")
    return subject.bit_token_sum(tokens_generated) / tokens_generated


# ---------------------------------------------------------------------------
# candidate scoring on a shared-prefix trie
# ---------------------------------------------------------------------------

def decode_candidates(variants, prompt: Sequence[int],
                      schedules: Sequence[PrecisionSchedule], max_new: int,
                      eos_id: int | None = None):
    """Greedy generation of every schedule on one prompt, decoding each shared
    precision prefix once.

    Schedules are grouped by prefill precision and each group is prefilled
    once. The group is then walked depth first as a trie over
    ``precision_at(step)``: where its members split into k precisions for the
    next step, the KV cache is forked k - 1 times. Every branch runs
    ``tinylm.decode_step`` and ``tinylm.sample`` on the same single-row inputs,
    in the same order, as ``tinylm.generate(variants, prompt,
    StaticScheduler(s), SamplerConfig(), eos_id, max_new)``, so each returned
    trace equals that call's bit for bit, ``logits_hashes`` included. EOS ends
    a branch and all its descendants. Decoding is greedy only: a sampler's
    RNG state would have to be forked along with the cache.

    Returns the traces in ``schedules`` order, and the cache of each prefill
    precision's root, whose rows ``[:len(prompt)]`` hold the prefill's K/V.
    """
    from . import tinylm

    eos = variants.config.vocab_size - 1 if eos_id is None else eos_id
    if max_new < 1:
        raise InputError(f"max_new must be >= 1, got {max_new}")
    for sched in schedules:
        if max_new > sched.horizon:
            raise InputError(f"max_new {max_new} exceeds the schedule horizon {sched.horizon}")
        tinylm.check_schedule(variants, sched)

    trie = _Trie(variants, schedules, max_new, eos)
    groups: dict[int, list[int]] = {}
    for i, sched in enumerate(schedules):
        groups.setdefault(sched.p_prefill, []).append(i)
    roots = {}
    for pf, members in groups.items():
        logits, roots[pf] = tinylm.prefill(variants, pf, prompt)
        trie.walk(members, roots[pf], [tinylm.sample(logits, tinylm.SamplerConfig())],
                  [tinylm.logits_hash(logits)])

    traces = [tinylm.GenerationTrace(list(prompt), list(tokens),
                                     [s.precision_at(j) for j in range(len(tokens))],
                                     list(hashes), "eos" if tokens[-1] == eos else "length",
                                     s.p_prefill, s)
              for s, (tokens, hashes) in zip(schedules, trie.ends)]
    return traces, roots


class _Trie:
    """Depth-first decoding below one prefill for :func:`decode_candidates`.
    An object rather than a recursive closure: the closure would be a
    reference cycle that keeps the model alive until a full collection."""

    def __init__(self, variants, schedules, max_new, eos):
        self.variants = variants
        self.schedules = schedules
        self.max_new = max_new
        self.eos = eos
        self.ends: list = [None] * len(schedules)

    def advance(self, p, cache, tokens, hashes):
        from . import tinylm

        logits, cache = tinylm.decode_step(self.variants, p, tokens[-1], cache)
        return (cache, tokens + [tinylm.sample(logits, tinylm.SamplerConfig())],
                hashes + [tinylm.logits_hash(logits)])

    def walk(self, members, cache, tokens, hashes):
        """Decode the candidates ``members``, which share ``tokens``, to their
        ends; ``cache`` holds the prompt and ``tokens[:-1]``."""
        while tokens[-1] != self.eos and len(tokens) < self.max_new:
            split: dict[int, list[int]] = {}
            for i in members:
                split.setdefault(self.schedules[i].precision_at(len(tokens) - 1),
                                 []).append(i)
            p, *lower = sorted(split, reverse=True)
            # each recursion lowers the precision, so depth <= |precisions|
            for q in lower:
                self.walk(split[q], *self.advance(q, cache.fork(), tokens, hashes))
            members = split[p]
            cache, tokens, hashes = self.advance(p, cache, tokens, hashes)
        for i in members:
            self.ends[i] = (tokens, hashes)


def reference_output(variants, prompt: Sequence[int], max_new: int,
                     eos: int) -> list[int] | None:
    """Greedy full-precision output of ``prompt``, the quality reference its
    candidates are scored against; ``None`` when it is empty or ``[eos]``."""
    from . import tinylm

    out = tinylm.generate(variants, prompt, FixedScheduler(FULL_PRECISION),
                          eos_id=eos, max_new=max_new).output_tokens
    return out if out and out != [eos] else None


def _schedule_qualities(variants, prompts, schedules, max_new, eos_id):
    """Mean Rouge-L F1 of each schedule's greedy generations against the
    full-precision references, over the prompts with a non-empty reference;
    also the number of prompts skipped."""
    from . import metrics

    eos = variants.config.vocab_size - 1 if eos_id is None else eos_id
    totals = [0.0] * len(schedules)
    kept = 0
    for prompt in prompts:
        ref = reference_output(variants, prompt, max_new, eos)
        if ref is None:
            continue
        kept += 1
        traces, _ = decode_candidates(variants, prompt, schedules, max_new, eos)
        for j, trace in enumerate(traces):
            totals[j] += metrics.rouge_l(trace.output_tokens, ref).f1
    if not kept:
        raise InputError("every calibration/validation prompt produced an empty reference")
    return [t / kept for t in totals], len(prompts) - kept


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
                              evaluator: Callable[[int, int], float] | None = None,
                              ) -> CalibrationReport:
    """Pick the smallest (prefill, decode) precision pair meeting the floor.

    Every pair of ``precisions`` (the model's set by default) with prefill >=
    decode is scored by mean quality over the calibration prompts; the winner
    minimizes decode precision first, then prefill precision. If nothing
    qualifies the highest pair is returned with the fallback flag set.
    ``evaluator(p_prefill, p_decode) -> quality`` overrides the default
    generation-based scoring.
    """
    ps = precisions if precisions is not None else getattr(variants, "precisions", None)
    if ps is None:
        raise ConfigError("no precision set supplied")
    pairs = sorted((pf, pd) for pd in ps for pf in ps if pf >= pd)
    skipped = 0
    if evaluator is not None:
        qualities = [float(evaluator(*pair)) for pair in pairs]
    else:
        if not calib_prompts:
            raise InputError("calibration prompt set is empty")
        candidates = [PrecisionSchedule.constant(pd, max_new, pf) for pf, pd in pairs]
        qualities, skipped = _schedule_qualities(variants, calib_prompts, candidates,
                                                 max_new, eos_id)
    table = dict(zip(pairs, qualities))

    qualifying = [pair for pair in pairs if table[pair] >= target.floor]
    if qualifying:
        chosen = min(qualifying, key=lambda pair: (pair[1], pair[0]))
        fallback = False
    else:
        chosen = (ps.p_max, ps.p_max)
        fallback = True
    return CalibrationReport(table, chosen, target.q_ref, target.tolerance,
                             fallback, skipped)


# ---------------------------------------------------------------------------
# static schedule search
# ---------------------------------------------------------------------------

def _select_best(variants, valset, eos_id,
                 quality_fn: Callable[[PrecisionSchedule], float] | None,
                 precisions: PrecisionSet, p_prefill: int, horizon: int,
                 candidates: Iterable[dict[int, int]], target: QualityTarget,
                 details_out: list | None) -> PrecisionSchedule:
    """Shared selection core: score every candidate (by ``quality_fn`` when
    given, else by generation over ``valset``), then among the feasible ones
    minimize the bit-token sum, tie-broken by earlier switches for higher
    precisions."""
    scheds = [PrecisionSchedule(precisions, p_prefill, st, horizon) for st in candidates]
    if quality_fn is not None:
        qualities = [float(quality_fn(s)) for s in scheds]
    else:
        if not valset:
            raise InputError("validation prompt set is empty")
        qualities, _ = _schedule_qualities(variants, valset, scheds, horizon, eos_id)

    desc = precisions.precisions
    best_key, best = None, None
    for sched, quality in zip(scheds, qualities):
        st = sched.switch_points
        feasible = quality >= target.floor
        bits = sched.bit_token_sum()
        if details_out is not None:
            details_out.append({"st": {str(p): st[p] for p in desc},
                                "quality": quality, "bit_token_sum": bits,
                                "feasible": feasible})
        if not feasible:
            continue
        key = (bits, tuple(st[p] for p in desc))
        if best_key is None or key < best_key:
            best_key, best = key, sched
    if best is None:
        st = {p: (0 if p == desc[0] else horizon) for p in desc}
        return PrecisionSchedule(precisions, p_prefill, st, horizon, feasible=False)
    return best


def solve_static(variants, valset: Sequence[Sequence[int]], target: QualityTarget,
                 grid: SwitchGrid, *, precisions: PrecisionSet, p_prefill: int,
                 eos_id: int | None = None,
                 quality_fn: Callable[[PrecisionSchedule], float] | None = None,
                 details_out: list | None = None) -> PrecisionSchedule:
    """Grid-restricted offline schedule search.

    Enumerates every precedence-respecting assignment of grid points to the
    lower precisions, scores each schedule by mean generation quality against
    full-precision references over the validation set, and returns the
    cheapest feasible schedule (fewest bit-tokens). Infeasible searches
    return the all-high schedule flagged infeasible. ``quality_fn`` replaces
    the generation-based scoring when supplied (synthetic experiments/tests).
    """
    candidates = enumerate_switch_maps(precisions.precisions, grid.points)
    return _select_best(variants, valset, eos_id, quality_fn, precisions, p_prefill,
                        grid.horizon, candidates, target, details_out)


def brute_force_best(variants, valset: Sequence[Sequence[int]], target: QualityTarget,
                     horizon: int, *, precisions: PrecisionSet, p_prefill: int,
                     eos_id: int | None = None,
                     quality_fn: Callable[[PrecisionSchedule], float] | None = None,
                     details_out: list | None = None) -> PrecisionSchedule:
    """Exact optimum over every integer switch point; the test oracle.

    Guarded to small horizons (<= 16) and at most 3 precisions because the
    candidate count grows combinatorially.
    """
    if horizon > 16 or len(precisions) > 3:
        raise ConfigError(
            f"brute force refused: horizon {horizon} > 16 or "
            f"{len(precisions)} precisions > 3"
        )
    candidates = enumerate_switch_maps(precisions.precisions, range(horizon + 1))
    return _select_best(variants, valset, eos_id, quality_fn, precisions, p_prefill,
                        horizon, candidates, target, details_out)
