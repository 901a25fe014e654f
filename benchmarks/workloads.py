"""The benchmark workloads and what one pass of each does.

Both workloads send requests one at a time from a single client and wait
for each reply (closed loop), like back-to-back ``pmpd generate``
invocations; the workload seed picks the order in which each pass sends
them.

serve-decode draws from a fixed pool of (prompt, scheduler) requests.

offline-search runs the README pipeline steps 2-4 as library calls, then
deploys what they produced: it sends every deploy prompt once under the
solved static schedule and once under the trained learned scheduler. Those
requests are the benchmark's own ``generate`` calls, so their population
does not depend on how the library runs its search.

Neither the pools nor the pipeline depend on the seed, because
``rouge_l_f1`` must be comparable between seeds and the output digests
checkable for every seed (see README.md).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pmpd import cli, learnsched, metrics, perf, quant, schedule, tinylm
from pmpd.schedule import FixedScheduler, PrecisionSchedule, StaticScheduler, SwitchGrid
from pmpd.util import named_rng

POOL_SEED = 11  # model weights, scheduler nets, label cuts and batch order

# bound at import, before a traced run wraps ``metrics.rouge_l``: the
# benchmark's own scoring of each reply is not pmpd's work
score_rouge_l = metrics.rouge_l


@dataclass(frozen=True)
class Sizes:
    """Model and input sizes; ``FULL`` is the benchmark, ``SMOKE`` a tiny
    configuration that exercises every code path in a few seconds."""

    model: tuple[str, ...]
    pool_prompts: int
    decode_new: int
    calib_prompts: int
    calib_new: int
    solve_prompts: int
    solve_prompt_bytes: int
    deploy_prompts: int
    solve_ol: int
    solve_grid: int
    solve3_prompts: int
    solve3_grid: int
    label_prompts: int
    hidden: int
    epochs: int
    setup_reps: int


FULL = Sizes(model=("--layers", "4", "--heads", "4", "--d-model", "128", "--d-ff", "256",
                    "--max-context", "256"),
             pool_prompts=25, decode_new=64, calib_prompts=6, calib_new=24,
             solve_prompts=10, solve_prompt_bytes=48, deploy_prompts=50, solve_ol=24, solve_grid=5,
             solve3_prompts=5, solve3_grid=4, label_prompts=10, hidden=64, epochs=100,
             setup_reps=3)

SMOKE = Sizes(model=("--layers", "2", "--heads", "2", "--d-model", "32", "--d-ff", "64",
                     "--max-context", "128"),
              pool_prompts=2, decode_new=8, calib_prompts=2, calib_new=4,
              solve_prompts=2, solve_prompt_bytes=16, deploy_prompts=2, solve_ol=8, solve_grid=3,
              solve3_prompts=2, solve3_grid=3, label_prompts=2, hidden=8, epochs=3,
              setup_reps=2)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def trace_digest(trace: tinylm.GenerationTrace) -> str:
    return digest([trace.output_tokens, trace.logits_hashes, trace.termination])


# ---------------------------------------------------------------------------
# set-up: what a deployment does before its first request
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    model_path: Path
    model: tinylm.ModelVariants
    seconds: float
    quantize_s: float


def set_up(sizes: Sizes, workdir: Path) -> Setup:
    """Quantize the toy model with ``pmpd quantize --random``, load it and
    fill the dequantized-weight cache at every precision."""
    path = workdir / "model.pmpd"
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["quantize", "--random", "--seed", str(POOL_SEED), "--precisions",
                       "4,3,2", *sizes.model, "--out", str(path)])
    t1 = perf_counter()
    if rc != 0:
        raise RuntimeError(f"pmpd quantize exited {rc}")
    model = tinylm.ModelVariants.load(path)
    for p in sorted(model.allowed_precisions()):
        for name in model.tensors:
            model.weights(name, p)
    return Setup(path, model, perf_counter() - t0, t1 - t0)


def corpus(tok) -> list[list[int]]:
    return [tok.encode(line) for line in cli.load_prompt_lines(None)]


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@dataclass
class Request:
    key: str
    prompt: list[int]
    scheduler: object
    max_new: int


@dataclass
class Reply:
    key: str
    digest: str
    f1: float
    timing: object


def references(model: tinylm.ModelVariants, prompts, max_new: int) -> dict:
    """Greedy full-precision outputs the requests are scored against."""
    refs = {}
    for prompt in prompts:
        key = (tuple(prompt), max_new)
        if key not in refs:
            refs[key] = tinylm.generate(model, prompt, FixedScheduler(16),
                                        max_new=max_new).output_tokens
    return refs


def serve_request(state, req: Request, stamps) -> Reply:
    t0 = stamps.begin()
    trace = tinylm.generate(state.setup.model, req.prompt, req.scheduler, max_new=req.max_new)
    timing = stamps.finish(t0)
    ref = state.refs[(tuple(req.prompt), req.max_new)]
    return Reply(req.key, trace_digest(trace), score_rouge_l(trace.output_tokens, ref).f1,
                 timing)


# ---------------------------------------------------------------------------
# serve-decode
# ---------------------------------------------------------------------------

@dataclass
class ServeState:
    setup: Setup
    pool: list[Request]
    rng: np.random.Generator
    static: PrecisionSchedule
    prompts: list[list[int]]
    max_new: int
    refs: dict = field(default_factory=dict)


def serve_state(sizes: Sizes, setup: Setup, seed: int) -> ServeState:
    """serve-decode: every other corpus prompt under four schedulers."""
    cfg = setup.model.config
    n = sizes.decode_new
    net = learnsched.SchedulerNet.init(cfg.d_model, cfg.d_model, sizes.hidden,
                                       SwitchGrid(5, n), 4, 2, seed=POOL_SEED)
    static = PrecisionSchedule((4, 3, 2), 4, {4: 0, 3: n // 4, 2: n // 2}, n)
    scheds = {"fixed16": FixedScheduler(16, n), "fixed4": FixedScheduler(4, n),
              "static432": StaticScheduler(static),
              "learned42": learnsched.LearnedScheduler(net, 4)}
    prompts = corpus(tinylm.ByteTokenizer())[::2][: sizes.pool_prompts]
    pool = [Request(f"{i}:{s}", prompt, sched, n)
            for i, prompt in enumerate(prompts) for s, sched in scheds.items()]
    return ServeState(setup, pool, named_rng(seed, "serve-decode-order"), static, prompts, n)


# ---------------------------------------------------------------------------
# offline search
# ---------------------------------------------------------------------------

@dataclass
class OfflineState:
    setup: Setup
    sizes: Sizes
    full_prompts: list[list[int]]
    cut_prompts: list[list[int]]
    rng: np.random.Generator
    prompts: list[list[int]]
    max_new: int
    refs: dict = field(default_factory=dict)


def offline_state(sizes: Sizes, setup: Setup, seed: int) -> OfflineState:
    lines = corpus(tinylm.ByteTokenizer())
    cut = [p[: sizes.solve_prompt_bytes] for p in lines]
    return OfflineState(setup, sizes, lines, cut, named_rng(seed, "offline-deploy-order"),
                        cut[: sizes.deploy_prompts], sizes.solve_ol)


STAGES = ("calibrate", "solve_c12", "solve_3p", "gen_labels", "train")


def offline_stage(state: OfflineState, stage: str, carry: dict) -> str:
    """Run one pipeline step; returns the digest of what it produced. The
    solved criterion-12 schedule and the trained net go into ``carry``."""
    s, model, eos = state.sizes, state.setup.model, tinylm.BYTE_EOS_ID
    if stage == "calibrate":
        rep = schedule.allocate_phase_precisions(
            model, state.full_prompts[: s.calib_prompts], schedule.QualityTarget(0.3, 0.1),
            max_new=s.calib_new, eos_id=eos)
        return digest(rep.to_json())
    if stage in ("solve_c12", "solve_3p"):
        c12 = stage == "solve_c12"
        details: list = []
        best = schedule.solve_static(
            model, state.cut_prompts[: s.solve_prompts if c12 else s.solve3_prompts],
            schedule.QualityTarget(0.29, 0.10),
            SwitchGrid(s.solve_grid if c12 else s.solve3_grid, s.solve_ol),
            precisions=quant.PrecisionSet((4, 2) if c12 else (4, 3, 2)), p_prefill=4,
            eos_id=eos, details_out=details)
        if c12:
            carry["solved"] = best
        return digest([best.to_json(), details])
    grid = SwitchGrid(s.solve_grid, s.solve_ol)
    if stage == "gen_labels":
        examples, skipped = learnsched.generate_labels(
            model, state.full_prompts[: s.label_prompts], grid, 4, 2, eos_id=eos,
            seed=POOL_SEED)
        carry["examples"] = examples
        return digest([skipped] + [[ex.label, ex.scores, ex.prompt_len,
                                    hashlib.sha256(ex.k.tobytes() + ex.v.tobytes()).hexdigest()]
                                   for ex in examples])
    if stage == "train":
        examples = carry["examples"]
        net = learnsched.SchedulerNet.init(examples[0].k.shape[1], examples[0].v.shape[1],
                                           s.hidden, grid, 4, 2, seed=POOL_SEED)
        res = learnsched.train(net, examples,
                               learnsched.TrainConfig(epochs=s.epochs, seed=POOL_SEED))
        carry["net"] = res.net
        return digest([res.net.to_json(), res.losses])
    raise ValueError(stage)


def deploy_pool(state: OfflineState, carry: dict) -> list[Request]:
    """The pipeline's products at work: every deploy prompt under the solved
    static schedule and under the trained learned scheduler."""
    scheds = {"solved": StaticScheduler(carry["solved"]),
              "learned": learnsched.LearnedScheduler(carry["net"], 4)}
    return [Request(f"{i}:{name}", prompt, sched, state.max_new)
            for i, prompt in enumerate(state.prompts) for name, sched in scheds.items()]


# ---------------------------------------------------------------------------
# traced-run extras
# ---------------------------------------------------------------------------

def probe(model: tinylm.ModelVariants, prompts: list[list[int]]) -> None:
    """Time the module functions serve-decode does not call, on its prompts:
    one training gradient and a two-candidate schedule search, which scores
    with ``metrics.rouge_l``."""
    cfg = model.config
    net = learnsched.SchedulerNet.init(cfg.d_model, cfg.d_model, 16, SwitchGrid(2, 8), 4, 2,
                                       seed=POOL_SEED)
    for prompt in prompts:
        _, cache = tinylm.prefill(model, 4, prompt)
        k, v = cache.layer_kv(-1)
        learnsched.example_loss_and_grads(net, k, v, 0)
    schedule.solve_static(model, prompts, schedule.QualityTarget(0.0, 0.0), SwitchGrid(2, 8),
                          precisions=quant.PrecisionSet((4, 2)), p_prefill=4)


def perf_loop(setup: Setup, step_us: dict[int, float], sched: PrecisionSchedule,
              prompt_len: int, workdir: Path) -> tuple[dict[str, tuple[float, str]], dict]:
    """Feed the measured per-precision decode-step latency (us) to
    ``pmpd perf --gpu-kernels`` in-process and read the weighted latency
    back; also report the modeled weight bytes per decode step."""
    kernels = workdir / "gpu_kernels.json"
    kernels.write_text(json.dumps({str(p): us for p, us in step_us.items()}), encoding="utf-8")
    sched_path = workdir / "schedule.json"
    sched_path.write_text(json.dumps(sched.to_json()), encoding="utf-8")
    out = workdir / "perf.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["perf", "--model", str(setup.model_path), "--schedule", str(sched_path),
                       "--prompt-len", str(prompt_len), "--gen-len", str(sched.horizon),
                       "--gpu-kernels", str(kernels), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"pmpd perf exited {rc}")
    report = json.loads(out.read_text(encoding="utf-8"))
    fp = perf.ModelFootprint.from_model_config(setup.model.config, setup.model.group_size)
    m = {f"perf.modeled_weight_bytes.p{p}": (fp.weight_bytes(p), "bytes")
         for p in (16, 4, 3, 2)}
    m["perf.weighted_gpu_latency_us"] = (report["gpu"]["weighted_latency_us"], "us")
    return m, report


def mean_prompt_len(prompts) -> int:
    return int(round(float(np.mean([len(p) for p in prompts]))))
