import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from pmpd import schedule, tinylm
from pmpd.errors import ConfigError, ContractViolation, FormatError, InputError
from pmpd.learnsched import LearnedScheduler, SchedulerNet, generate_labels, label_from_scores
from pmpd.metrics import rouge_l
from pmpd.quant import PrecisionSet
from pmpd.schedule import (FixedScheduler, PrecisionSchedule, QualityTarget,
                           StaticScheduler, SwitchGrid, allocate_phase_precisions,
                           avg_bitwidth, count_schedules, enumerate_switch_maps,
                           solve_static)
from pmpd.tinylm import FULL_PRECISION, SamplerConfig


def two_phase(high, low, switch, horizon, prefill=None):
    return PrecisionSchedule.two_phase(high, low, switch, horizon, prefill)


# ---------------------------------------------------------------------------
# precision_at / validate
# ---------------------------------------------------------------------------

def test_precision_at_switch_semantics():
    s = two_phase(3, 2, 3, 5)
    assert [s.precision_at(i) for i in range(5)] == [3, 3, 3, 2, 2]


def test_precision_at_immediate_switch():
    s = two_phase(3, 2, 0, 4)
    assert [s.precision_at(i) for i in range(4)] == [2, 2, 2, 2]


def test_precision_at_never_switches():
    s = two_phase(3, 2, 4, 4)
    assert [s.precision_at(i) for i in range(4)] == [3, 3, 3, 3]


def test_validate_ok():
    s = PrecisionSchedule(PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 2, 2: 5}, 8)
    assert [s.precision_at(i) for i in range(8)] == [4, 4, 3, 3, 3, 2, 2, 2]
    # equal starts skip a precision; OL means "never used"
    s = PrecisionSchedule(PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 2, 2: 2}, 8)
    assert [s.precision_at(i) for i in range(4)] == [4, 4, 2, 2]
    PrecisionSchedule(PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 8, 2: 8}, 8)


def test_validate_precedence_violation():
    with pytest.raises(ConfigError, match="must start at 0"):
        PrecisionSchedule(PrecisionSet((4, 3)), 4, {4: 3, 3: 1}, 8)
    with pytest.raises(ConfigError, match="non-decreasing"):
        PrecisionSchedule(PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 5, 2: 1}, 8)


def test_validate_range_violation():
    with pytest.raises(ConfigError, match=r"within \[0, 8\]"):
        PrecisionSchedule(PrecisionSet((3, 2)), 3, {3: 0, 2: 9}, 8)
    with pytest.raises(ConfigError, match="must start at 0"):
        PrecisionSchedule(PrecisionSet((3, 2)), 3, {3: -1, 2: 0}, 8)
    with pytest.raises(ConfigError):
        PrecisionSchedule.constant(3, -1)


@pytest.mark.parametrize("st", [{4: 0}, {4: 0, 3: 2, 2: 4}, {4: 0, 2: 4}, {}],
                         ids=["missing", "extra", "wrong", "empty"])
def test_switch_points_must_name_exactly_the_precisions(st):
    with pytest.raises(ConfigError, match="must name exactly"):
        PrecisionSchedule(PrecisionSet((4, 3)), 4, st, 8)


@pytest.mark.parametrize("args", [((4, 2), 4.5, {4: 0, 2: 3}, 8),
                                  ((4, 2), 4, {4: 0, 2: 3.7}, 8),
                                  ((4, 2), 4, {4.0: 0, 2: 3}, 8),
                                  ((4, 2), 4, {4: 0, 2: 3}, 8.2),
                                  ((4, 2), True, {4: 0, 2: 3}, 8)],
                         ids=["prefill", "switch", "key", "horizon", "bool-prefill"])
def test_a_schedule_built_in_code_refuses_a_non_integer(args):
    # int() truncated them: prefill 4.5 was built as 4, switch 3.7 as 3, OL 8.2 as 8
    with pytest.raises(TypeError):
        PrecisionSchedule(*args)


def test_a_schedule_takes_numpy_integers_as_ints():
    i = np.int64
    s = PrecisionSchedule((4, 2), i(4), {i(4): i(0), i(2): i(3)}, i(8))
    assert (s.p_prefill, s.switch_points, s.horizon) == (4, {4: 0, 2: 3}, 8)
    assert all(type(x) is int
               for x in (s.p_prefill, s.horizon, *s.switch_points, *s.switch_points.values()))


def test_precision_at_non_increasing_on_random_valid_schedules():
    rng = np.random.default_rng(0)
    for _ in range(100):
        horizon = int(rng.integers(1, 20))
        k = int(rng.integers(1, 4))
        ps = PrecisionSet(tuple(sorted(rng.choice(range(1, 9), k, replace=False),
                                       reverse=True)))
        lows = sorted(int(x) for x in rng.integers(0, horizon + 1, k - 1))
        st = {ps.p_max: 0, **dict(zip(ps.precisions[1:], lows))}
        s = PrecisionSchedule(ps, ps.p_max, st, horizon)
        seq = [s.precision_at(i) for i in range(horizon)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert ps.p_min <= avg_bitwidth(s, horizon) <= ps.p_max


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_small_values():
    assert count_schedules(4, 2) == 5
    assert count_schedules(4, 1) == 1
    assert count_schedules(6, 3) == 28


def test_count_matches_enumeration():
    for horizon in range(1, 9):
        for k in range(1, 4):
            ps = list(range(k + 1, 1, -1))
            enumerated = sum(1 for _ in enumerate_switch_maps(ps, range(horizon + 1)))
            assert enumerated == count_schedules(horizon, k)


def test_count_rejects_bad_args():
    with pytest.raises(InputError):
        count_schedules(0, 2)
    with pytest.raises(InputError):
        count_schedules(4, 0)


def test_count_large_horizon_is_exact_integer():
    # arbitrary-precision: no overflow at sizes where C(OL, r) is astronomical
    n = count_schedules(4096, 3)
    assert n == 1 + 2 * 4096 + (4096 * 4095) // 2


@pytest.mark.parametrize("s", [
    two_phase(3, 2, 3, 5),
    PrecisionSchedule(PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 2, 2: 2}, 8),
    PrecisionSchedule(PrecisionSet((4, 3, 2)), 4, {4: 0, 3: 3, 2: 8}, 8),
    PrecisionSchedule(PrecisionSet((4, 2)), 4, {4: 0, 2: 8}, 8),
], ids=["two-phase", "equal-switch-points", "switch-at-OL", "never-switches"])
def test_token_precisions_charges_token_i_at_precision_at_i(s):
    for n in (0, 1, s.horizon):
        assert list(s.token_precisions(n)) == [s.precision_at(i) for i in range(n)]


def test_token_precisions_is_lazy_over_a_fixed_schedulers_horizon():
    # a list of 2^30 precisions would take minutes and gigabytes
    assert next(iter(FixedScheduler(4).schedule.token_precisions(1 << 30))) == 4


# ---------------------------------------------------------------------------
# avg bitwidth
# ---------------------------------------------------------------------------

def test_avg_bitwidth_weighted_fraction():
    s = two_phase(3, 2, 39, 100)
    assert avg_bitwidth(s, 100) == 2.39


def test_avg_bitwidth_constant():
    assert avg_bitwidth(PrecisionSchedule.constant(3, 10), 10) == 3.0


def test_avg_bitwidth_midpoint():
    assert avg_bitwidth(two_phase(4, 3, 5, 10), 10) == 3.5


def test_avg_bitwidth_of_trace():
    class Trace:
        precisions = [3, 3, 2, 2]

    assert avg_bitwidth(Trace()) == 2.5


def test_avg_bitwidth_rejects_zero_tokens():
    class Empty:
        precisions = []

    with pytest.raises(InputError):
        avg_bitwidth(Empty())
    with pytest.raises(InputError):
        avg_bitwidth(two_phase(3, 2, 1, 4), 0)


# ---------------------------------------------------------------------------
# switch grid
# ---------------------------------------------------------------------------

def test_grid_points():
    g = SwitchGrid(5, 256)
    assert g.points == (0, 64, 128, 192, 256)


def test_grid_rounding_and_validation():
    assert SwitchGrid(4, 10).points == (0, 3, 7, 10)
    with pytest.raises(ConfigError):
        SwitchGrid(5, 2)  # duplicate points
    with pytest.raises(ConfigError):
        SwitchGrid(1, 10)


@pytest.mark.parametrize("n, horizon", [(3, 8.5), (2.0, 8), (2, True), (True, 8)])
def test_a_grid_built_in_code_refuses_a_non_integer(n, horizon):
    # SwitchGrid(3, 8.5).points was (0, 4, 9), a point past its own horizon
    with pytest.raises(TypeError):
        SwitchGrid(n, horizon)


def test_a_grid_takes_numpy_integers_as_ints():
    g = SwitchGrid(np.int64(3), np.int32(8))
    assert g == SwitchGrid(3, 8) and type(g.n) is int and type(g.horizon) is int


def test_grid_refuses_more_points_than_tokens_before_building_any():
    assert SwitchGrid(9, 8).points == tuple(range(9))
    with pytest.raises(ConfigError) as exc:
        SwitchGrid(10**6, 8)
    assert len(str(exc.value)) < 200


# ---------------------------------------------------------------------------
# phase-aware allocation
# ---------------------------------------------------------------------------

TABLE = {(2, 2): 0.50, (3, 2): 0.80, (3, 3): 0.82, (4, 4): 0.83,
         (4, 2): 0.79, (4, 3): 0.81}


def table_quality(s):
    return TABLE[(s.p_prefill, s.precisions.p_max)]


@pytest.mark.parametrize("q_ref, tolerance", [(0.5, -0.1), (math.nan, 0.1), (0.5, math.nan),
                                               (math.inf, 0.1), (0.5, math.inf)])
def test_quality_target_refuses_a_negative_or_non_finite_floor(q_ref, tolerance):
    # a NaN floor made every candidate infeasible, an infinite tolerance
    # every candidate feasible
    with pytest.raises(ConfigError):
        QualityTarget(q_ref, tolerance)
    assert QualityTarget(0.5, 0.0).floor == 0.5


def test_allocation_lexicographic_rule():
    report = allocate_phase_precisions(None, [[1]], QualityTarget(0.83, 0.03),
                                       precisions=PrecisionSet((4, 3, 2)),
                                       quality_fn=table_quality)
    assert report.chosen == (3, 2)
    assert not report.fallback


def test_allocation_huge_tolerance_picks_minimum():
    report = allocate_phase_precisions(None, [[1]], QualityTarget(0.83, 10.0),
                                       precisions=PrecisionSet((4, 3, 2)),
                                       quality_fn=table_quality)
    assert report.chosen == (2, 2)


def test_allocation_fallback_when_nothing_qualifies():
    report = allocate_phase_precisions(None, [[1]], QualityTarget(0.99, 0.0),
                                       precisions=PrecisionSet((4, 3, 2)),
                                       quality_fn=table_quality)
    assert report.chosen == (4, 4)
    assert report.fallback


def test_allocation_rejects_empty_calibration_set():
    with pytest.raises(InputError):
        allocate_phase_precisions(None, [], QualityTarget(0.5, 0.1),
                                  precisions=PrecisionSet((3, 2)))


def test_a_search_whose_every_reference_is_empty_is_refused(small_model):
    # with EOS the first token the fp16 model emits, the only reference is just EOS
    prompt = list(b"The river finds its way")
    eos = tinylm.generate(small_model, prompt, FixedScheduler(FULL_PRECISION),
                          max_new=1).output_tokens[0]
    with pytest.raises(InputError, match="every calibration/validation prompt produced"):
        allocate_phase_precisions(small_model, [prompt], QualityTarget(0.5, 0.1),
                                  max_new=4, eos_id=eos)
    with pytest.raises(InputError, match="every calibration/validation prompt produced"):
        solve_static(small_model, [prompt], QualityTarget(0.5, 0.1), SwitchGrid(2, 4),
                     precisions=PrecisionSet((4, 2)), p_prefill=4, eos_id=eos)


def test_allocation_report_json_round_shape():
    report = allocate_phase_precisions(None, [[1]], QualityTarget(0.83, 0.03),
                                       precisions=PrecisionSet((4, 3, 2)),
                                       quality_fn=table_quality)
    obj = report.to_json()
    assert obj["chosen"] == {"prefill": 3, "decode": 2}
    assert obj["pairs"]["3/2"] == 0.80


# ---------------------------------------------------------------------------
# static solver
# ---------------------------------------------------------------------------

PS32 = PrecisionSet((3, 2))


def frac_low_quality(horizon):
    def q(sched):
        low = sum(1 for i in range(horizon) if sched.precision_at(i) == sched.precisions.p_min)
        return 1.0 - 0.1 * (low / horizon)

    return q


def test_solver_picks_feasibility_boundary():
    horizon = 8
    grid = SwitchGrid(5, horizon)
    best = solve_static(None, None, QualityTarget(1.0, 0.05), grid,
                        precisions=PS32, p_prefill=3,
                        quality_fn=frac_low_quality(horizon))
    # quality >= 0.95 means at most half the tokens at the low precision
    assert best.feasible
    assert best.switch_points[2] == horizon // 2


def test_solver_returns_all_low_when_feasible():
    grid = SwitchGrid(5, 8)
    best = solve_static(None, None, QualityTarget(0.0, 0.0), grid,
                        precisions=PS32, p_prefill=3, quality_fn=lambda s: 1.0)
    assert best.switch_points == {3: 0, 2: 0}
    assert best.feasible


def test_solver_flags_infeasible_and_returns_all_high():
    grid = SwitchGrid(5, 8)
    best = solve_static(None, None, QualityTarget(2.0, 0.0), grid,
                        precisions=PS32, p_prefill=3, quality_fn=lambda s: 1.0)
    assert not best.feasible
    assert best.switch_points == {3: 0, 2: 8}


def test_solver_equals_brute_force_on_full_range_grids(naive_best):
    # three precisions make equal bit-token sums common, so the tie-break counts
    rng = np.random.default_rng(1)
    for trial in range(60):
        ps = PrecisionSet([(3, 2), (4, 3, 2), (8, 6, 4)][trial % 3])
        horizon = int(rng.integers(1, 7))
        grid = SwitchGrid(horizon + 1, horizon)  # every integer switch point
        qmap = {st: float(rng.uniform(0.0, 1.0))
                for st in itertools.product(range(horizon + 1), repeat=len(ps))}

        def q(s):
            return qmap[tuple(s.switch_points[p] for p in ps)]

        target = QualityTarget(float(rng.uniform(0.2, 0.9)), 0.1)
        a = solve_static(None, None, target, grid, precisions=ps, p_prefill=ps.p_max,
                         quality_fn=q)
        b = naive_best(ps, ps.p_max, horizon, q, target)
        assert a.switch_points == b.switch_points
        assert a.feasible == b.feasible
        assert avg_bitwidth(a, horizon) == avg_bitwidth(b, horizon)


def test_solver_horizon_one():
    best = solve_static(None, None, QualityTarget(0.0, 0.0), SwitchGrid(2, 1),
                        precisions=PS32, p_prefill=3, quality_fn=lambda s: 1.0)
    assert best.switch_points == {3: 0, 2: 0}


def test_solver_constant_quality_returns_all_low():
    best = solve_static(None, None, QualityTarget(0.5, 0.1), SwitchGrid(9, 8),
                        precisions=PrecisionSet((4, 3, 2)), p_prefill=4,
                        quality_fn=lambda s: 0.9)
    assert best.switch_points == {4: 0, 3: 0, 2: 0}


def test_solver_results_always_validate():
    rng = np.random.default_rng(2)
    for _ in range(30):
        grid = SwitchGrid(4, 9)
        target = QualityTarget(float(rng.uniform(0, 1.2)), 0.05)
        # every candidate and the result are built, and so validated
        solve_static(None, None, target, grid, precisions=PrecisionSet((4, 3, 2)),
                     p_prefill=4, quality_fn=lambda s: float(rng.uniform(0, 1)))


def test_details_out_records_every_candidate():
    details = []
    grid = SwitchGrid(3, 4)
    solve_static(None, None, QualityTarget(0.5, 0.0), grid, precisions=PS32,
                 p_prefill=3, quality_fn=lambda s: 1.0, details_out=details)
    assert len(details) == 3
    assert all({"st", "quality", "bit_token_sum", "feasible"} <= set(d) for d in details)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_schedule_json_round_trip():
    s = PrecisionSchedule(PrecisionSet((3, 2)), 3, {3: 0, 2: 38}, 256)
    obj = s.to_json()
    assert obj == {"precisions": [3, 2], "prefill": 3, "st": {"3": 0, "2": 38},
                   "OL": 256, "feasible": True}
    back = PrecisionSchedule.from_json(obj)
    assert back.switch_points == s.switch_points
    assert back.horizon == s.horizon and back.p_prefill == s.p_prefill


def test_schedule_from_json_rejects_garbage():
    with pytest.raises(InputError):
        PrecisionSchedule.from_json({"precisions": [3, 2]})
    good = {"precisions": [3, 2], "prefill": 3, "st": {"3": 0, "2": 4}, "OL": 8}
    for bad in ({**good, "st": [0, 4]}, {**good, "OL": 1e400}, [good], None):
        with pytest.raises(InputError):
            PrecisionSchedule.from_json(bad)
    with pytest.raises(FormatError, match="^malformed schedule JSON: switch points"):
        PrecisionSchedule.from_json({**good, "st": {"3": 0}})
    # read through the constructor, a non-integer is still a malformed file
    for bad in ({**good, "prefill": 3.5}, {**good, "st": {"3": 0, "2": 4.0}},
                {**good, "OL": True}):
        with pytest.raises(FormatError, match="^malformed schedule JSON"):
            PrecisionSchedule.from_json(bad)


def test_full_precision_schedule_survives_json_round_trip():
    # reference generations carry a constant-16 schedule in their traces
    s = PrecisionSchedule.constant(16, 24)
    back = PrecisionSchedule.from_json(s.to_json())
    assert back.precision_at(0) == 16


# ---------------------------------------------------------------------------
# shared-prefix candidate decoding
# ---------------------------------------------------------------------------

def decode_all(model, prompt, schedules, max_new, eos_id=None):
    """Every schedule on one prompt through the engine's one entry point, greedily."""
    (traces,), features = tinylm.decode_schedules(
        model, [prompt], [StaticScheduler(s) for s in schedules], eos_id=eos_id,
        max_new=max_new)
    return traces, features


def independent_traces(naive_generate, model, prompt, schedules, max_new, eos_id=None):
    return [naive_generate(model, prompt, StaticScheduler(s), SamplerConfig(), eos_id, max_new)
            for s in schedules]


def assert_matches_generate(naive_generate, model, prompt, schedules, max_new, eos_id=None):
    """Each candidate's trace equals the naive loop's over its schedule alone,
    and ``tinylm.generate``'s, bit for bit."""
    traces, _ = decode_all(model, prompt, schedules, max_new, eos_id)
    expected = independent_traces(naive_generate, model, prompt, schedules, max_new, eos_id)
    generated = [tinylm.generate(model, prompt, StaticScheduler(s), SamplerConfig(), eos_id,
                                 max_new) for s in schedules]
    assert [t.to_json() for t in generated] == [t.to_json() for t in expected]
    assert len(traces) == len(expected)
    for got, want in zip(traces, expected):
        assert got.to_json() == want.to_json()
    return traces


def c12_candidates(horizon=24):
    ps = PrecisionSet((4, 2))
    return [PrecisionSchedule(ps, 4, st, horizon)
            for st in enumerate_switch_maps(ps.precisions, SwitchGrid(5, horizon).points)]


def test_trie_matches_generate_in_the_criterion_12_configuration(toy_model, corpus_prompts,
                                                                 naive_generate):
    for prompt in corpus_prompts[:2]:
        traces = assert_matches_generate(naive_generate, toy_model, prompt, c12_candidates(), 24)
        assert len({tuple(t.output_tokens) for t in traces}) > 1


def test_trie_matches_generate_in_the_brute_force_configuration(small_model, corpus_prompts,
                                                                naive_generate):
    ps = PrecisionSet((4, 3, 2))
    horizon = 8
    maps = list(enumerate_switch_maps(ps.precisions, range(horizon + 1)))
    # two prefill groups: 4 for every map, 3 for every other one
    schedules = ([PrecisionSchedule(ps, 4, st, horizon) for st in maps]
                 + [PrecisionSchedule(ps, 3, st, horizon) for st in maps[::2]])
    for prompt in corpus_prompts[:2]:
        assert_matches_generate(naive_generate, small_model, prompt, schedules, horizon)


def test_trie_matches_generate_when_branches_hit_eos(toy_model, corpus_prompts, naive_generate):
    prompt, horizon = corpus_prompts[0], 24
    schedules = c12_candidates(horizon)
    # make EOS a token the all-high spine emits mid-way, so it ends a shared
    # prefix (and every descendant) while branches that left earlier go on
    spine = independent_traces(naive_generate, toy_model, prompt, schedules[-1:],
                               horizon)[0].output_tokens
    eos = next(t for j, t in enumerate(spine) if j >= 8 and t not in spine[:j])
    traces = assert_matches_generate(naive_generate, toy_model, prompt, schedules, horizon, eos)
    assert any(t.termination == "eos" and len(t.output_tokens) < horizon for t in traces)
    assert any(t.output_tokens != traces[-1].output_tokens for t in traces)


def test_trie_keeps_the_checks_of_generate(small_model):
    prompt = [1, 2, 3]
    with pytest.raises(InputError):
        decode_all(small_model, prompt, [two_phase(4, 2, 2, 8)], 9)
    with pytest.raises(InputError):
        decode_all(small_model, prompt, [two_phase(4, 2, 2, 8)], 0)
    with pytest.raises(ConfigError):  # an invalid schedule cannot even be built
        PrecisionSchedule(PrecisionSet((4, 2)), 4, {4: 3, 2: 1}, 8)
    with pytest.raises(ContractViolation):
        decode_all(small_model, prompt, [two_phase(5, 2, 2, 8)], 8)


def test_trie_leaves_no_reference_cycles(small_model):
    # a cycle would keep the model and its dequantized weights alive until a
    # full collection, growing peak memory across model reloads
    gc.collect()
    gc.disable()
    try:
        decode_all(small_model, [1, 2, 3], [two_phase(4, 2, k, 8) for k in (0, 4, 8)], 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# lockstep waves: many prompts in one call
# ---------------------------------------------------------------------------

@pytest.fixture
def narrow_waves(monkeypatch):
    """Waves of at most three prompts, so that ``mixed_prompts`` span several."""
    monkeypatch.setattr(tinylm, "WAVE", 3)


def mixed_prompts(corpus_prompts, lengths=(5, 17, 9, 17, 30, 9, 12)):
    """Prompts of the given lengths: equal ones share attention runs, and
    more of them than ``tinylm.WAVE`` make more than one wave."""
    prompts = [p[:n] for p, n in zip(corpus_prompts, lengths)]
    assert [len(p) for p in prompts] == list(lengths) and len(prompts) > tinylm.WAVE
    return prompts


def assert_lockstep_matches_generate(model, prompts, schedulers, max_new, eos_id=None):
    """One lockstep call over every prompt; each (prompt, scheduler) trace
    equals ``generate``'s on that prompt and scheduler alone, bit for bit."""
    traces, _ = tinylm.decode_schedules(model, prompts, schedulers, eos_id=eos_id,
                                        max_new=max_new)
    assert len(traces) == len(prompts)
    for prompt, row in zip(prompts, traces):
        assert len(row) == len(schedulers)
        for scheduler, got in zip(schedulers, row):
            want = tinylm.generate(model, prompt, scheduler, eos_id=eos_id, max_new=max_new)
            assert got.to_json() == want.to_json()
    return traces


def test_lockstep_matches_generate_on_mixed_lengths_across_waves(toy_model, corpus_prompts,
                                                                 narrow_waves):
    prompts = mixed_prompts(corpus_prompts)
    schedulers = [StaticScheduler(s) for s in c12_candidates()]
    traces = assert_lockstep_matches_generate(toy_model, prompts, schedulers, 24)
    assert len({tuple(t.output_tokens) for row in traces for t in row}) > len(prompts)


def test_lockstep_matches_generate_on_mixed_lengths_in_one_wave(toy_model, corpus_prompts,
                                                                monkeypatch):
    # at the default WAVE every prompt shares one block: the widest step
    # advances all of its rows at once
    prompts = [p[:n] for p, n in zip(corpus_prompts, (5, 17, 9, 17, 30, 9, 12, 30, 5))]
    assert len(prompts) <= tinylm.WAVE
    widths = []
    decode_step = tinylm.decode_step

    def step(model, p, tokens, cache, rows):
        widths.append(len(rows))
        return decode_step(model, p, tokens, cache, rows)

    monkeypatch.setattr(tinylm, "decode_step", step)
    schedulers = [StaticScheduler(s) for s in c12_candidates()]
    assert_lockstep_matches_generate(toy_model, prompts, schedulers, 24)
    assert max(widths) == len(prompts)


def test_lockstep_matches_generate_with_three_precisions_and_two_prefill_groups(
        small_model, corpus_prompts, narrow_waves):
    ps, horizon = PrecisionSet((4, 3, 2)), 16
    maps = list(enumerate_switch_maps(ps.precisions, SwitchGrid(5, horizon).points))
    schedulers = [StaticScheduler(PrecisionSchedule(ps, 4, st, horizon)) for st in maps]
    schedulers += [StaticScheduler(PrecisionSchedule(ps, 3, st, horizon)) for st in maps[::2]]
    assert_lockstep_matches_generate(small_model, mixed_prompts(corpus_prompts), schedulers,
                                     horizon)


def test_lockstep_matches_generate_when_learned_schedules_differ(small_model, corpus_prompts,
                                                                 narrow_waves):
    d = small_model.config.d_model
    learned = LearnedScheduler(SchedulerNet.init(d, d, 16, SwitchGrid(5, 16), 4, 2, seed=4))
    schedulers = [learned, StaticScheduler(two_phase(4, 2, 8, 16)), FixedScheduler(3, 16, 4)]
    traces = assert_lockstep_matches_generate(small_model, mixed_prompts(corpus_prompts),
                                              schedulers, 16)
    # rows of one block switch at different steps, also within a wave
    switches = [row[0].schedule.switch_points[2] for row in traces]
    assert len(set(switches[: tinylm.WAVE])) > 1


def test_lockstep_matches_generate_when_eos_ends_a_branch_mid_trie(toy_model, corpus_prompts,
                                                                   narrow_waves):
    prompts, horizon = mixed_prompts(corpus_prompts), 24
    schedulers = [StaticScheduler(s) for s in c12_candidates(horizon)]
    spine = tinylm.generate(toy_model, prompts[1], schedulers[-1], max_new=horizon).output_tokens
    eos = next(t for j, t in enumerate(spine) if j >= 8 and t not in spine[:j])
    traces = assert_lockstep_matches_generate(toy_model, prompts, schedulers, horizon, eos)
    ended = [t for row in traces for t in row
             if t.termination == "eos" and len(t.output_tokens) < horizon]
    assert ended and len(ended) < sum(map(len, traces))


def test_lockstep_features_equal_an_independent_prefill(small_model, corpus_prompts,
                                                        narrow_waves):
    prompts = mixed_prompts(corpus_prompts)
    schedulers = [StaticScheduler(two_phase(4, 2, 4, 8)), StaticScheduler(two_phase(3, 2, 4, 8))]
    _, features = tinylm.decode_schedules(small_model, prompts, schedulers, max_new=8,
                                          feature_block=0)
    for prompt, feats in zip(prompts, features):
        assert sorted(feats) == [3, 4]
        for pf, (k, v) in feats.items():
            _, cache = tinylm.prefill(small_model, pf, prompt)
            want_k, want_v = cache.layer_kv(0)
            assert k.tobytes() == want_k.tobytes() and v.tobytes() == want_v.tobytes()


def test_lockstep_live_kv_stays_within_the_wave_budget(toy_model, corpus_prompts,
                                                        monkeypatch, narrow_waves):
    # every KV cache allocated (a row view allocates none) that is still alive
    live = weakref.WeakSet()
    init = tinylm.KVCache.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    monkeypatch.setattr(tinylm.KVCache, "__init__", tracked)
    seen, longest = [], weakref.WeakKeyDictionary()  # block -> longest prompt prefilled

    def only_block(cache):
        # the one live cache and whether ``cache`` is it or a view of it
        (block,) = list(live)
        return block, np.shares_memory(cache.k, block.k) and np.shares_memory(cache.v, block.v)

    decode_step = tinylm.decode_step

    def step(model, p, tokens, cache, rows):
        block, inside = only_block(cache)
        seen.append(("step", cache is block and inside, len(block.lengths),
                     block.capacity - longest[block]))
        return decode_step(model, p, tokens, cache, rows)

    monkeypatch.setattr(tinylm, "decode_step", step)
    prefill = tinylm.prefill

    def counted_prefill(model, p, prompt, cache=None):
        inside = only_block(cache)[1]
        logits, filled = prefill(model, p, prompt, cache)
        block, after = only_block(filled)
        longest[block] = max(longest.get(block, 0), len(prompt))
        seen.append(("prefill", inside and after, len(block.lengths),
                     block.capacity - longest[block]))
        return logits, filled

    monkeypatch.setattr(tinylm, "prefill", counted_prefill)
    ps, horizon = PrecisionSet((4, 3, 2)), 16
    schedulers = [StaticScheduler(PrecisionSchedule(ps, 4, st, horizon))
                  for st in enumerate_switch_maps(ps.precisions, SwitchGrid(4, horizon).points)]
    prompts = mixed_prompts(corpus_prompts, (8, 30, 12, 30, 48, 20, 8, 40, 16))
    tinylm.decode_schedules(toy_model, prompts, schedulers, max_new=horizon, feature_block=-1)
    # from the first prefill on, a walk's only live KV is its block, of one
    # wave at its longest prompt plus the max_new - 1 positions its steps
    # write: each prefill writes into a row of it (shortest first) and every
    # branch decodes in it
    assert [kind for kind, *_ in seen].count("prefill") == len(prompts)
    assert "step" in {kind for kind, *_ in seen}
    for kind, inside, rows, room in seen:
        assert inside and rows <= tinylm.WAVE and room >= horizon - 1
        assert kind == "prefill" or room == horizon - 1
    assert not live


def count_calls(monkeypatch, name):
    """Wrap ``tinylm.<name>`` and return the list of precisions it ran at, one
    entry per row: a ``prefill`` counts once, a ``decode_step`` once per row
    of the logits it returns."""
    calls = []
    fn = getattr(tinylm, name)

    def counted(model, p, *args, **kwargs):
        out = fn(model, p, *args, **kwargs)
        calls.extend([p] * (1 if name == "prefill" else len(out)))
        return out

    monkeypatch.setattr(tinylm, name, counted)
    return calls


def test_trie_traffic_in_the_criterion_12_configuration(toy_model, corpus_prompts,
                                                        monkeypatch):
    prefills = count_calls(monkeypatch, "prefill")
    steps = count_calls(monkeypatch, "decode_step")
    full = 0
    for prompt in corpus_prompts[:3]:
        del prefills[:], steps[:]
        traces, _ = decode_all(toy_model, prompt, c12_candidates(), 24)
        assert prefills == [4]
        if all(t.termination == "length" for t in traces):
            full += 1
            # 23 steps on the all-high spine plus 23 - s for the branch
            # leaving it at switch point s: 23 + 17 + 11 + 5 + 0, not 5 * 23
            assert len(steps) == 79
    assert full > 0

    # one lockstep call makes the same prefills and row-steps, in fewer calls
    per_prompt = []
    for prompt in corpus_prompts[:3]:
        del steps[:]
        decode_all(toy_model, prompt, c12_candidates(), 24)
        per_prompt.append(len(steps))
    del prefills[:], steps[:]
    prompts = corpus_prompts[:3]
    tinylm.decode_schedules(toy_model, prompts, [StaticScheduler(s) for s in c12_candidates()],
                            max_new=24)
    assert prefills == [4] * len(prompts)
    assert len(steps) == sum(per_prompt)

    del prefills[:], steps[:]
    solve_static(toy_model, prompts, QualityTarget(0.3, 0.1), SwitchGrid(5, 24),
                 precisions=PrecisionSet((4, 2)), p_prefill=4)
    assert [p for p in prefills if p != FULL_PRECISION] == [4] * len(prompts)


def fresh_small_model():
    cfg = tinylm.ModelConfig(n_layers=2, n_heads=2, d_model=64, d_ff=128, max_context=128)
    return tinylm.ModelVariants.from_random(cfg, PrecisionSet((4, 3, 2)), seed=7)


def test_every_solve_decodes_the_references_of_all_its_prompts(corpus_prompts, monkeypatch):
    references = []
    decode_schedules = tinylm.decode_schedules

    def counted(model, prompts, schedulers, *args, **kwargs):
        if [s.p_prefill for s in schedulers] == [FULL_PRECISION]:
            references.append([(tuple(prompt), kwargs["max_new"], kwargs["eos_id"])
                               for prompt in prompts])
        return decode_schedules(model, prompts, schedulers, *args, **kwargs)

    monkeypatch.setattr(tinylm, "decode_schedules", counted)
    model, target, grid = fresh_small_model(), QualityTarget(0.15, 0.05), SwitchGrid(4, 12)
    kw = dict(precisions=PrecisionSet((4, 2)), p_prefill=4)
    first, second = corpus_prompts[:4], corpus_prompts[2:6]
    solve_static(model, first, target, grid, **kw)
    details: list = []
    best = solve_static(model, second, target, grid, details_out=details, **kw)
    # one reference call per solve, over all its prompts, shared ones included
    assert references == [[(tuple(p), 12, None) for p in prompts]
                          for prompts in (first, second)]
    # an earlier solve on the same model changes nothing
    fresh_details: list = []
    again = solve_static(fresh_small_model(), second, target, grid,
                         details_out=fresh_details, **kw)
    assert again.to_json() == best.to_json() and best.feasible
    assert fresh_details == details and len(references) == 3


def test_generate_labels_prefills_once_per_prompt(toy_model, corpus_prompts, monkeypatch):
    prefills = count_calls(monkeypatch, "prefill")
    examples, skipped = generate_labels(toy_model, corpus_prompts[:3], SwitchGrid(5, 24),
                                        4, 2, seed=3)
    assert examples
    # one shared prefill per labeled prompt serves all five candidates and
    # the features; the others are the full-precision references
    assert [p for p in prefills if p != FULL_PRECISION] == [4] * len(examples)
    assert prefills.count(FULL_PRECISION) == len(examples) + skipped


def test_allocation_scores_exactly_the_given_pairs(small_model, corpus_prompts):
    prompts, max_new = corpus_prompts[:3], 8
    report = allocate_phase_precisions(small_model, prompts, QualityTarget(0.5, 0.1),
                                       precisions=PrecisionSet((3, 2)), max_new=max_new)
    assert sorted(report.table) == [(2, 2), (3, 2), (3, 3)]
    refs = [t.output_tokens for t in
            (tinylm.generate(small_model, p, FixedScheduler(FULL_PRECISION), max_new=max_new)
             for p in prompts)]
    for (pf, pd), quality in report.table.items():
        total = 0.0
        for prompt, ref in zip(prompts, refs):
            out = tinylm.generate(small_model, prompt, FixedScheduler(pd, max_new, pf),
                                  max_new=max_new).output_tokens
            total += rouge_l(out, ref).f1
        assert quality == total / len(prompts)


# ---------------------------------------------------------------------------
# the one scoring rule
# ---------------------------------------------------------------------------

def eos_emptying(model, prompt):
    """An EOS id that makes ``prompt``'s full-precision reference just EOS:
    the reference's first token."""
    return tinylm.generate(model, prompt, FixedScheduler(FULL_PRECISION),
                           max_new=1).output_tokens[0]


def independent_scores(model, prompts, candidates, max_new, eos_id):
    """Prompt index -> each candidate's Rouge-L F1 from separate ``generate``
    calls, for the prompts whose reference is not just EOS."""
    scores = {}
    for n, prompt in enumerate(prompts):
        ref = tinylm.generate(model, prompt, FixedScheduler(FULL_PRECISION), eos_id=eos_id,
                              max_new=max_new).output_tokens
        if ref != [eos_id]:
            scores[n] = [rouge_l(tinylm.generate(model, prompt, StaticScheduler(c),
                                                 eos_id=eos_id, max_new=max_new).output_tokens,
                                 ref).f1 for c in candidates]
    return scores


def test_score_candidates_skips_an_empty_reference_and_scores_like_generate(
        small_model, corpus_prompts):
    prompts = [p[:16] for p in corpus_prompts[:5]]
    eos = eos_emptying(small_model, prompts[0])
    candidates = [two_phase(4, 2, s, 8) for s in (0, 4, 8)] + [PrecisionSchedule.constant(3, 8)]
    kept, scores, features = schedule.score_candidates(small_model, prompts, candidates, 8,
                                                       eos, feature_block=0)
    want = independent_scores(small_model, prompts, candidates, 8, eos)
    assert 0 not in kept and len(kept) > 1 and kept == sorted(want)
    assert scores == [want[n] for n in kept]
    assert len(features) == len(kept)
    for n, feats in zip(kept, features):
        assert sorted(feats) == [3, 4]
        for pf, (k, v) in feats.items():
            want_k, want_v = tinylm.prefill(small_model, pf, prompts[n])[1].layer_kv(0)
            assert k.tobytes() == want_k.tobytes() and v.tobytes() == want_v.tobytes()
    with pytest.raises(InputError):  # an empty prompt beside a good one
        schedule.score_candidates(small_model, [[1, 2], []], candidates, 8)
    with pytest.raises(InputError):
        schedule.score_candidates(small_model, [[1, 2]], candidates, 0)


def test_calibration_and_solver_qualities_are_the_scorer_column_means(small_model,
                                                                      corpus_prompts):
    prompts = [p[:16] for p in corpus_prompts[:5]]
    eos = eos_emptying(small_model, prompts[0])
    ps, grid, target = PrecisionSet((4, 2)), SwitchGrid(3, 8), QualityTarget(0.5, 0.1)
    details: list = []
    solve_static(small_model, prompts, target, grid, precisions=ps, p_prefill=4, eos_id=eos,
                 details_out=details)
    candidates = [PrecisionSchedule(ps, 4, st, 8)
                  for st in enumerate_switch_maps(ps.precisions, grid.points)]
    assert [d["st"] for d in details] == [c.to_json()["st"] for c in candidates]
    kept, scores, _ = schedule.score_candidates(small_model, prompts, candidates, 8, eos)
    means = [sum(column) / len(kept) for column in zip(*scores)]
    assert [d["quality"] for d in details] == means
    # the running totals the solver once kept add in the same order
    want = independent_scores(small_model, prompts, candidates, 8, eos)
    totals = [0.0] * len(candidates)
    for row in want.values():
        for j, f1 in enumerate(row):
            totals[j] += f1
    assert means == [t / len(want) for t in totals]

    report = allocate_phase_precisions(small_model, prompts, target, precisions=ps,
                                       max_new=8, eos_id=eos)
    pairs = sorted(report.table)
    kept, scores, _ = schedule.score_candidates(
        small_model, prompts, [PrecisionSchedule.constant(pd, 8, pf) for pf, pd in pairs],
        8, eos)
    assert report.skipped == len(prompts) - len(kept) > 0
    assert [report.table[pair] for pair in pairs] == [sum(column) / len(kept)
                                                      for column in zip(*scores)]


def test_label_scores_are_the_scorer_rows(small_model, corpus_prompts):
    seeds, grid = [p[:16] for p in corpus_prompts[:5]], SwitchGrid(3, 8)
    first, skipped = generate_labels(small_model, seeds, grid, 4, 2, seed=9)
    assert skipped == 0
    # the truncation is drawn before any skip, so it is the same under any EOS
    prompts = [toks[: ex.prompt_len] for toks, ex in zip(seeds, first)]
    eos = eos_emptying(small_model, prompts[0])
    examples, skipped = generate_labels(small_model, seeds, grid, 4, 2, eos_id=eos, seed=9,
                                        feature_block=0)
    kept, scores, features = schedule.score_candidates(
        small_model, prompts, [two_phase(4, 2, s, 8) for s in grid.points], 8, eos,
        feature_block=0)
    assert 0 not in kept and skipped == len(prompts) - len(kept)
    assert [ex.scores for ex in examples] == scores
    assert [ex.label for ex in examples] == [label_from_scores(row) for row in scores]
    assert [ex.prompt_len for ex in examples] == [len(prompts[n]) for n in kept]
    for ex, feats in zip(examples, features):
        assert ex.k.tobytes() == feats[4][0].astype(np.float32).tobytes()
        assert ex.v.tobytes() == feats[4][1].astype(np.float32).tobytes()
