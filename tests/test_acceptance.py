"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import itertools
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from pmpd import cli, learnsched, metrics, perf, quant, schedule, tinylm
from pmpd.learnsched import LabeledExample, SchedulerNet, TrainConfig, train
from pmpd.perf import HardwareConfig, ModelFootprint
from pmpd.schedule import (FixedScheduler, PrecisionSchedule, QualityTarget,
                           StaticScheduler, SwitchGrid, avg_bitwidth,
                           count_schedules, enumerate_switch_maps, solve_static)
from pmpd.tinylm import FULL_PRECISION


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] FAIL - {desc}", flush=True)
        raise
    print(f"[criterion {n:2d}] PASS - {desc}", flush=True)


def random_quantized(rng):
    p_max = int(rng.choice([2, 3, 4]))
    rows = int(rng.integers(1, 65))
    cols = int(rng.integers(1, 65))
    gs = int(rng.integers(1, cols + 1))
    w = rng.normal(0, 1, (rows, cols))
    return quant.quantize_tensor(w, p_max, gs), w


def test_criterion_01_nesting_property():
    with criterion(1, "bit-plane prefixes equal shifted codes on 1000 random tensors"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(1000):
            qt, _ = random_quantized(rng)
            codes = qt.codes
            for p in range(1, qt.p_max + 1):
                assert np.array_equal(quant.unpack_prefix(qt.store, p),
                                      codes >> (qt.p_max - p))
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_dequantization_error_bounds():
    with criterion(2, "reconstruction error bounded at every precision"):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            qt, w = random_quantized(rng)
            for p in range(1, qt.p_max + 1):
                err = np.abs(w - quant.dequantize(qt, p))
                bound = quant.max_reconstruction_error_bound(qt, p)
                assert np.all(err <= bound * (1 + 1e-9) + 1e-15)


def test_criterion_03_schedule_count_formula():
    with criterion(3, "switch-point count formula matches exhaustive enumeration"):
        start = time.monotonic()
        assert count_schedules(4, 2) == 5
        assert count_schedules(6, 3) == 28
        for horizon in range(1, 9):
            for k in range(1, 4):
                ps = list(range(k + 1, 1, -1))
                enumerated = sum(1 for _ in enumerate_switch_maps(ps, range(horizon + 1)))
                assert enumerated == count_schedules(horizon, k)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_04_solver_matches_brute_force_oracle(naive_best):
    with criterion(4, "grid solver equals brute-force oracle on 50 random quality maps"):
        rng = np.random.default_rng(104)
        for trial in range(50):
            ps = quant.PrecisionSet([(3, 2), (4, 3, 2)][trial % 2])
            n = int(rng.integers(2, 6))          # N <= 5
            horizon = n - 1                      # grid covers every integer point
            grid = SwitchGrid(n, horizon)
            qmap = {st: float(rng.uniform(0, 1))
                    for st in itertools.product(range(horizon + 1), repeat=len(ps))}
            target = QualityTarget(float(rng.uniform(0.2, 1.1)), 0.1)

            def quality(s):
                return qmap[tuple(s.switch_points[p] for p in ps)]

            a = solve_static(None, None, target, grid, precisions=ps, p_prefill=ps.p_max,
                             quality_fn=quality)
            b = naive_best(ps, ps.p_max, horizon, quality, target)
            assert a.feasible == b.feasible
            assert avg_bitwidth(a, horizon) == avg_bitwidth(b, horizon)
            assert a.switch_points == b.switch_points


def test_criterion_05_average_bitwidth_exactness():
    with criterion(5, "average bitwidth is the exact token-weighted mean"):
        s = PrecisionSchedule.two_phase(3, 2, 39, 100)
        got = avg_bitwidth(s, 100)
        assert got == 239 / 100
        assert got == 2.39
        rng = np.random.default_rng(105)
        for _ in range(100):
            horizon = int(rng.integers(1, 200))
            switch = int(rng.integers(0, horizon + 1))
            b_h, b_l = sorted(rng.choice(range(1, 9), 2, replace=False), reverse=True)
            s = PrecisionSchedule.two_phase(int(b_h), int(b_l), switch, horizon)
            f = switch / horizon
            expected = b_l + f * (b_h - b_l)
            assert abs(avg_bitwidth(s, horizon) - expected) < 1e-12


def test_criterion_06_incremental_matches_full_forward(toy_model):
    with criterion(6, "cached decoding matches full forward at precisions 2/3/4/16"):
        cfg = toy_model.config
        assert (cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.vocab_size) == (4, 128, 4, 257)
        tokens = list(b"Old maps mark the mountain") + [256, 17, 99]
        for p in (2, 3, 4, FULL_PRECISION):
            full = tinylm.forward_full(toy_model, p, tokens)
            got = [tinylm.forward_full(toy_model, p, tokens[:1])[0]]
            _, cache = tinylm.prefill(toy_model, p, tokens[:1])
            for t in tokens[1:]:
                (logits,) = tinylm.decode_step(toy_model, p, [t], cache, [0])
                got.append(logits)
            for pos in range(len(tokens)):
                rel = np.max(np.abs(got[pos] - full[pos]) / (np.abs(full[pos]) + 1e-9))
                assert rel < 1e-5, (p, pos, rel)


def test_criterion_07_scheduler_gradient_check():
    with criterion(7, "analytic gradients match central differences within 1e-4"):
        net = SchedulerNet.init(4, 4, 3, SwitchGrid(3, 8), 3, 2, seed=107)
        rng = np.random.default_rng(107)
        K, V = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        label = 1
        _, analytic = learnsched.example_loss_and_grads(net, K, V, label)
        h = 1e-6
        for name, arr in net.params().items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp = learnsched.example_loss_and_grads(net, K, V, label)[0]
                arr[idx] = orig - h
                lm = learnsched.example_loss_and_grads(net, K, V, label)[0]
                arr[idx] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num), abs(analytic[name][idx]), 1e-8)
                assert abs(num - analytic[name][idx]) / denom < 1e-4, name


def test_criterion_08_training_sanity():
    with criterion(8, "95% accuracy on separable 5-class data; whole-batch loss monotone"):
        rng = np.random.default_rng(108)
        data = []
        for i in range(100):
            c = i % 5
            feat = np.zeros(6)
            feat[c] = 3.0
            feat += rng.normal(0, 0.3, 6)
            data.append(LabeledExample(np.zeros((1, 6), np.float32),
                                       feat.astype(np.float32)[None, :], c))
        net = SchedulerNet.init(6, 6, 64, SwitchGrid(5, 16), 3, 2, seed=108)
        result = train(net, data, TrainConfig(lr=1e-2, epochs=200, batch=16, seed=108))
        assert result.final_accuracy >= 0.95, result.final_accuracy

        whole = train(net, data, TrainConfig(lr=1e-3, epochs=60, batch=len(data),
                                             momentum=0.0, seed=108))
        assert all(b <= a + 1e-12 for a, b in zip(whole.losses, whole.losses[1:]))


def test_criterion_09_rouge_matches_recursive_oracle():
    with criterion(9, "Rouge-L agrees with a memoized recursive LCS on 500 pairs"):
        def recursive_lcs(a, b):
            @lru_cache(maxsize=None)
            def go(i, j):
                if i == len(a) or j == len(b):
                    return 0
                if a[i] == b[j]:
                    return 1 + go(i + 1, j + 1)
                return max(go(i + 1, j), go(i, j + 1))

            return go(0, 0)

        rng = np.random.default_rng(109)
        for _ in range(500):
            a = tuple(rng.integers(0, 6, rng.integers(0, 13)).tolist())
            b = tuple(rng.integers(0, 6, rng.integers(0, 13)).tolist())
            lcs = recursive_lcs(a, b)
            assert metrics.lcs_len(a, b) == lcs
            score = metrics.rouge_l(a, b)
            p = lcs / len(a) if a else 0.0
            r = lcs / len(b) if b else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert (score.precision, score.recall, score.f1) == (p, r, f1)


def test_criterion_10_perf_model_rooflines():
    with criterion(10, "roofline speedups: 16/b ratio, 7B bracket, mobile tokens/s"):
        # (a) pure bandwidth regime: speedup of b-bit vs 16-bit is 16/b within 1%
        bw_only = HardwareConfig(1 << 40, 1e9, 32e9)
        fp = ModelFootprint(10**9, 4 * 10**8, 10**7, 24, 0, group_size=1 << 40)  # no KV
        t16 = perf.decode_token_latency(fp, FULL_PRECISION, bw_only)
        for b in (2, 3, 4, 8):
            tb = perf.decode_token_latency(fp, b, bw_only)
            assert abs(t16 / tb - 16 / b) / (16 / b) < 0.01

        # (b) 7B-scale footprint on the 16K-MAC device: 3-bit prefill with a
        # 3->2 decode schedule lands in the reported speedup bracket
        vicuna = perf.FOOTPRINT_PRESETS["vicuna-7b"]
        sched = PrecisionSchedule.two_phase(3, 2, 128, 256, p_prefill=3)
        report = perf.pipeline_perf(vicuna, sched, perf.NPU_16K, 512, 256)
        assert 3.0 <= report.speedup_vs_fp16 <= 9.0, report.speedup_vs_fp16

        # (c) mobile-scale footprint at 2-3 bits sustains > 50 tokens/s
        mobile = perf.FOOTPRINT_PRESETS["mobilellama-1.4b"]
        sched = PrecisionSchedule.two_phase(3, 2, 32, 128, p_prefill=3)
        report = perf.pipeline_perf(mobile, sched, perf.NPU_4K, 64, 128)
        assert report.tokens_per_s > 50.0, report.tokens_per_s


def test_criterion_11_prefill_uplift_is_cheap():
    with criterion(11, "one extra prefill bit moves end-to-end latency by < 2%"):
        mobile = perf.FOOTPRINT_PRESETS["mobilellama-1.4b"]
        hw = HardwareConfig(4096, 1e9, 32e9, overlap=False)  # pessimistic: no overlap
        lo = perf.pipeline_perf(mobile, PrecisionSchedule.two_phase(3, 2, 128, 256, 3),
                                hw, 512, 256)
        hi = perf.pipeline_perf(mobile, PrecisionSchedule.two_phase(3, 2, 128, 256, 4),
                                hw, 512, 256)
        change = (hi.total_s - lo.total_s) / lo.total_s
        assert 0.0 <= change < 0.02, change
        assert hi.prefill_uplift_pct < 2.0


def test_criterion_12_desk_scale_static_pmpd(toy_model, corpus_prompts):
    with criterion(12, "static PMPD beats the low baseline at below-high bitwidth"):
        start = time.monotonic()
        prompts = corpus_prompts[:20]
        horizon = 24
        ps = quant.PrecisionSet((4, 2))

        refs = [tinylm.generate(toy_model, p, FixedScheduler(FULL_PRECISION),
                                max_new=horizon).output_tokens for p in prompts]

        def mean_fidelity(scheduler):
            total = 0.0
            for prompt, ref in zip(prompts, refs):
                out = tinylm.generate(toy_model, prompt, scheduler,
                                      max_new=horizon).output_tokens
                total += metrics.rouge_l(out, ref).f1
            return total / len(prompts)

        fid_high = mean_fidelity(FixedScheduler(4, horizon))  # uniform high (4/4)
        fid_low = mean_fidelity(FixedScheduler(2, horizon))   # uniform low  (2/2)
        assert fid_high > fid_low  # aggregate monotonicity of fidelity

        target = QualityTarget(q_ref=fid_high, tolerance=0.10)
        grid = SwitchGrid(5, horizon)
        best = solve_static(toy_model, prompts, target, grid,
                            precisions=ps, p_prefill=4)
        assert best.feasible

        fid_pmpd = mean_fidelity(StaticScheduler(best))
        bits_pmpd = avg_bitwidth(best, horizon)
        assert fid_pmpd >= fid_low, (fid_pmpd, fid_low)
        assert bits_pmpd < 4.0, bits_pmpd

        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        print(f"    fid(high)={fid_high:.3f} fid(pmpd)={fid_pmpd:.3f} "
              f"fid(low)={fid_low:.3f} bits(pmpd)={bits_pmpd:.2f} "
              f"[{elapsed:.1f}s]", flush=True)


PIPELINE_TINY = ["--layers", "2", "--heads", "2", "--d-model", "64", "--d-ff", "128",
                 "--max-context", "128"]


def run_pipeline(workdir, monkeypatch):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    steps = [
        ["quantize", "--random", "--seed", "7", "--precisions", "4,3,2",
         *PIPELINE_TINY, "--out", "model.pmpd"],
        ["calibrate-phase", "--model", "model.pmpd", "--limit", "4",
         "--q-ref", "1.0", "--tolerance", "1.0", "--max-new", "8", "--seed", "7",
         "--out", "calib.json"],
        ["solve-static", "--model", "model.pmpd", "--limit", "4",
         "--precisions", "3,2", "--prefill", "4", "--q-ref", "0.0",
         "--tolerance", "0.0", "--grid-n", "5", "--ol", "8", "--seed", "7",
         "--out", "schedule.json"],
        ["gen-labels", "--model", "model.pmpd", "--limit", "4", "--grid-n", "5",
         "--ol", "8", "--high", "3", "--low", "2", "--seed", "7",
         "--out", "labels.jsonl"],
        ["train-scheduler", "--labels", "labels.jsonl", "--hidden", "8",
         "--epochs", "3", "--seed", "7", "--out", "net.json"],
        ["generate", "--model", "model.pmpd", "--limit", "4",
         "--learned", "net.json", "--max-new", "8", "--seed", "7",
         "--out", "traces.json"],
        ["generate", "--model", "model.pmpd", "--limit", "4",
         "--fixed-precision", "4", "--max-new", "8", "--seed", "7",
         "--out", "refs.json"],
        ["eval", "--traces", "traces.json", "--references", "refs.json",
         "--seed", "7", "--out", "eval.json"],
        ["perf", "--model", "model.pmpd", "--schedule", "schedule.json",
         "--prompt-len", "16", "--gen-len", "8", "--seed", "7", "--out", "perf.json"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]
    names = ["model.pmpd", "calib.json", "schedule.json", "labels.jsonl",
             "net.json", "traces.json", "refs.json", "eval.json", "perf.json"]
    return {name: (workdir / name).read_bytes() for name in names}


def test_criterion_13_pipeline_determinism(tmp_path, monkeypatch):
    with criterion(13, "the full pipeline run twice is byte-identical"):
        first = run_pipeline(tmp_path / "one", monkeypatch)
        second = run_pipeline(tmp_path / "two", monkeypatch)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
