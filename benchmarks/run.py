#!/usr/bin/env python3
"""pmpd benchmark: one command, closed-loop workloads, one client.

    python3 benchmarks/run.py --workload serve-decode --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --smoke          # every workload at tiny size
    python3 benchmarks/run.py --write-golden   # refresh benchmarks/golden.json

Run it from the root of a source checkout; it imports ``pmpd`` from
``src/`` and nowhere else. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` repeats one pass with spans around every module and reports
the per-module metrics. Progress goes to stdout, and the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with the machine record (and, traced, a span file) is written
under ``benchmarks/out/``. The exit code is 0 only when every output was
correct. See ``benchmarks/README.md`` for what each workload is for.
"""
from __future__ import annotations

import os

# the benchmark's own BLAS runs single-threaded (<= nproc): at d_model 128
# threads only add scheduling noise; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("serve-decode", "offline-search")
MIN_PASSES = 2  # the second pass checks the first
PAIR_ORDERS = ((False, True), (True, False))  # untraced/traced send order
MEASURED_UNITS = ("s", "ms", "us", "tokens/s", "MB", "bytes")


def import_pmpd() -> None:
    """Make ``src/pmpd`` of this checkout importable; refuse any other copy."""
    if not (SRC / "pmpd" / "__init__.py").is_file():
        raise SystemExit(f"error: no pmpd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pmpd
    if Path(pmpd.__file__).resolve().parent != (SRC / "pmpd").resolve():
        raise SystemExit(f"error: imported pmpd from {pmpd.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _openblas():
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    for line in maps.read_text().splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in Path(fields[-1]).name.lower():
            return ctypes.CDLL(fields[-1])
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib = _openblas()
    threads = _blas_call(lib, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                               "openblas_get_num_threads"), ctypes.c_int)
    core = _blas_call(lib, ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                            "openblas_get_corename"), ctypes.c_char_p)
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core.decode() if core else None,
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_model": cpu,
    }


def golden_key(machine: dict) -> str:
    """Bitwise outputs are only comparable for the same CPU, BLAS kernel and numpy."""
    return f"{machine['cpu_model']}|{machine['blas_core']}|numpy {machine['numpy']}"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(sends, passes, rouge, setup_s, stage_s: float = 0.0) -> tuple[dict, dict]:
    """End-to-end metrics shared by every workload, with their sample counts.

    ``sends`` holds, per distinct request, the timings of each time a pass
    sent it. Every latency statistic is taken over the per-request median of
    those sends (per decode-step position for the gaps), tails included: a
    shared 2-vCPU host runs identical work up to 1.8x slower in phases
    lasting seconds, and the median drops a phase that covers fewer than
    half of a request's sends, while a cost paid on most sends still shows.
    ``pass_s`` is one pass assembled from the same medians, plus
    ``stage_s``, the pipeline steps that precede the requests of an offline
    pass. A tail percentile is trusted when at least 10 samples lie beyond
    it.
    """
    med = statistics.median
    ttft = [med(t.ttft_s for t in ts) for ts in sends]
    totals = [med(t.total_s for t in ts) for ts in sends]
    gaps = [med(col) for ts in sends for col in zip(*(t.gaps_s for t in ts))]
    if not ttft or not gaps:
        raise RuntimeError(f"nothing to time: {len(ttft)} requests completed, "
                           f"{len(gaps)} decode steps observed")
    m = {
        "setup_s": (med(setup_s), "s"),
        "ttft_ms_p50": (pct(ttft, 50) * 1e3, "ms"),
        "ttft_ms_p90": (pct(ttft, 90) * 1e3, "ms"),
        "itl_ms_p50": (pct(gaps, 50) * 1e3, "ms"),
        "itl_ms_p99": (pct(gaps, 99) * 1e3, "ms"),
        "decode_tok_s": (len(gaps) / sum(gaps), "tokens/s"),
        "request_ms_p50": (pct(totals, 50) * 1e3, "ms"),
        "request_ms_p90": (pct(totals, 90) * 1e3, "ms"),
        "pass_s": (stage_s + sum(totals), "s"),
        "rouge_l_f1": (rouge, "F1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"setup": len(setup_s), "requests": len(sends),
               "sends_per_request_min": min(len(ts) for ts in sends),
               "itl_positions": len(gaps), "passes": passes,
               "ttft_p90_tail_ok": len(ttft) >= 100, "itl_p99_tail_ok": len(gaps) >= 1000,
               "request_p90_tail_ok": len(totals) >= 100}
    return m, samples


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Run:
    """What one invocation measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict = {}
        self.tracer = None
        self.first: dict[str, str] = {}  # output digest of each input's first run
        self.f1: dict[str, float] = {}  # each request's first reply
        self.replies: list = []  # untraced replies, in order

    def fail(self, msg: str) -> None:
        self.failures.append(msg)
        print(f"FAILED: {msg}", flush=True)

    def check(self, key: str, digest: str) -> None:
        """Every later run of the same input must reproduce the first."""
        if self.first.setdefault(key, digest) != digest:
            self.fail(f"{key}: output differs between runs over the same input")


def set_up(sizes, workdir, run: Run):
    """One timed set-up; a run sets up a few times first and again before
    every pass, so its median spans the whole run."""
    import workloads as wl
    setup = wl.set_up(sizes, workdir)
    run.details.setdefault("setup_s", []).append(setup.seconds)
    run.details.setdefault("quantize_s", []).append(setup.quantize_s)
    return setup


def _check_golden(run: Run, golden: dict | None, name: str) -> None:
    """Digests are keyed by input, and no input depends on the seed."""
    if golden is None:
        run.details["golden"] = "not checked"
        return
    want = golden["workloads"].get(name, {})
    bad = [k for k, d in run.first.items() if k in want and want[k] != d]
    for k in bad:
        run.fail(f"{name} {k}: output digest differs from golden")
    run.details["golden"] = f"{sum(k in want for k in run.first) - len(bad)} matched, " \
                            f"{len(bad)} differ"


def send(state, req, stamps, run: Run, keep: bool) -> None:
    """Send one request and check its reply; ``keep`` adds the reply to the
    run's timed replies."""
    import workloads as wl
    run.attempted += 1
    try:
        reply = wl.serve_request(state, req, stamps)
    except Exception:  # a failed request is counted, reported and skipped
        run.fail(f"{req.key}: {traceback.format_exc(limit=3)}")
        return
    if keep:
        run.replies.append(reply)
    run.f1.setdefault(req.key, reply.f1)
    run.check(req.key, reply.digest)


def send_pool(state, pool, stamps, run: Run, deadline: float | None) -> bool:
    """Send every request of the pool once, in a fresh seeded order; False
    when the deadline cut the pass short."""
    for i in state.rng.permutation(len(pool)):
        if deadline is not None and perf_counter() >= deadline:
            return False
        send(state, pool[i], stamps, run, True)
    return True


def stage_run(state, stage: str, carry: dict, run: Run, tr=None) -> bool:
    """Run one offline pipeline step and check it against its first run."""
    import workloads as wl
    run.attempted += 1
    try:
        if tr is None:
            d = wl.offline_stage(state, stage, carry)
        else:
            with tr.span(f"bench.{stage}", stage=stage):
                d = wl.offline_stage(state, stage, carry)
    except Exception:
        run.fail(f"{stage}: {traceback.format_exc(limit=3)}")
        return False
    run.check(f"stage:{stage}", d)
    return True


def report(run: Run, passes: int, stage_s: float = 0.0) -> None:
    """The end-to-end metrics of an untraced run from its kept replies."""
    if run.failures and not run.replies:
        return  # the failures are the result
    sends: dict = {}
    for r in run.replies:
        sends.setdefault(r.key, []).append(r.timing)
    rouge = statistics.fmean(run.f1[k] for k in sorted(run.f1))
    run.metrics, run.details["samples"] = latency_metrics(
        list(sends.values()), passes, rouge, run.details["setup_s"], stage_s)


def paired(tr, walls: list, n: int, call) -> None:
    """Run ``call(traced)`` untraced and traced, in alternating order: the
    pair runs in the same phase of the host, so their ratio is the tracing
    overhead."""
    for traced in PAIR_ORDERS[n % 2]:
        (tr.install if traced else tr.uninstall)()
        t0 = perf_counter()
        call(traced)
        walls[traced] += perf_counter() - t0
    tr.install()


def run_serve(name, sizes, seed, seconds, trace, workdir, golden, run: Run) -> None:
    import tracing
    import workloads as wl

    for _ in range(sizes.setup_reps):
        setup = set_up(sizes, workdir, run)
    state = wl.serve_state(sizes, setup, seed)
    state.refs = wl.references(setup.model, state.prompts, state.max_new)
    patches = tracing.Patches()
    stamps = tracing.Stamps()
    stamps.install(patches)
    try:
        if not trace:
            deadline = perf_counter() + seconds
            passes = 0
            while passes < MIN_PASSES or perf_counter() < deadline:
                if passes:
                    state.setup = set_up(sizes, workdir, run)
                if not send_pool(state, state.pool, stamps, run,
                                 deadline if passes >= MIN_PASSES else None):
                    break
                passes += 1
            _check_golden(run, golden, name)
            report(run, passes)
            return
        tr = run.tracer = tracing.Tracer()
        tr.install()
        try:
            with tr.span("bench.setup"):
                state.setup = wl.set_up(sizes, workdir)
            with tr.span("bench.references"):
                if wl.references(state.setup.model, state.prompts, state.max_new) != state.refs:
                    run.fail("traced reference generations differ from untraced ones")
            walls = [0.0, 0.0]
            calls0 = stamps.calls
            with tr.span("bench.pass"):
                for n, i in enumerate(state.rng.permutation(len(state.pool))):
                    paired(tr, walls, n,
                           lambda traced: send(state, state.pool[i], stamps, run, False))
            stamp_calls = (stamps.calls - calls0) / 2
            with tr.span("bench.probe"):
                wl.probe(state.setup.model, [state.pool[0].prompt, state.pool[-1].prompt])
            _per_module(run, tr, state.setup, state.static,
                        wl.mean_prompt_len(state.prompts), workdir)
        finally:
            tr.uninstall()
        _overheads(run, *walls, stamp_calls)
    finally:
        patches.restore()


def run_offline(sizes, seed, seconds, trace, workdir, golden, run: Run) -> None:
    import tracing
    import workloads as wl

    for _ in range(sizes.setup_reps):
        setup = set_up(sizes, workdir, run)
    state = wl.offline_state(sizes, setup, seed)
    state.refs = wl.references(setup.model, state.prompts, state.max_new)
    patches = tracing.Patches()
    stamps = tracing.Stamps()
    stamps.install(patches)
    try:
        if not trace:
            deadline = perf_counter() + seconds
            walls, stage_times = [], []
            # start another pass only while it can end by the deadline
            while len(walls) < MIN_PASSES or perf_counter() + min(walls) <= deadline:
                if walls:
                    state.setup = set_up(sizes, workdir, run)
                carry: dict = {}
                times = {}
                t0 = perf_counter()
                for stage in wl.STAGES:
                    ts = perf_counter()
                    if not stage_run(state, stage, carry, run):
                        break
                    times[stage] = perf_counter() - ts
                stage_times.append(times)
                if run.failures:
                    break
                send_pool(state, wl.deploy_pool(state, carry), stamps, run, None)
                walls.append(perf_counter() - t0)
            _check_golden(run, golden, "offline-search")
            run.details["stage_s"] = {
                stage: statistics.median(t[stage] for t in stage_times if stage in t)
                for stage in wl.STAGES if any(stage in t for t in stage_times)}
            report(run, len(walls), sum(run.details["stage_s"].values()))
            return
        tr = run.tracer = tracing.Tracer()
        tr.install()
        try:
            with tr.span("bench.setup"):
                state.setup = wl.set_up(sizes, workdir)
            with tr.span("bench.references"):
                if wl.references(state.setup.model, state.prompts, state.max_new) != state.refs:
                    run.fail("traced reference generations differ from untraced ones")
            walls = [0.0, 0.0]
            carries: tuple[dict, dict] = ({}, {})
            calls0 = stamps.calls
            with tr.span("bench.pass"):
                for n, stage in enumerate(wl.STAGES):
                    paired(tr, walls, n, lambda traced: stage_run(
                        state, stage, carries[traced], run, tr if traced else None))
                pools = [wl.deploy_pool(state, c) for c in carries]
                for n, i in enumerate(state.rng.permutation(len(pools[0]))):
                    paired(tr, walls, n,
                           lambda traced: send(state, pools[traced][i], stamps, run, False))
            stamp_calls = (stamps.calls - calls0) / 2
            _per_module(run, tr, state.setup, carries[1]["solved"],
                        wl.mean_prompt_len(state.prompts), workdir)
        finally:
            tr.uninstall()
        _overheads(run, *walls, stamp_calls)
    finally:
        patches.restore()


def _per_module(run: Run, tr, setup, sched, prompt_len: int, workdir: Path) -> None:
    import tracing
    import workloads as wl

    module, run.details["probe_figures"] = tracing.module_metrics(tr)
    run.metrics.update(module)
    step_us = {p: statistics.median(tr.durations("tinylm.decode_step", p=p)) * 1e6
               for p in (16, 4, 3, 2)}
    with tr.span("bench.perf"):
        perf_metrics, perf_report = wl.perf_loop(setup, step_us, sched, prompt_len, workdir)
    run.metrics.update(perf_metrics)
    run.details["gpu_kernels_us"] = {str(p): us for p, us in step_us.items()}
    run.details["perf_gpu"] = perf_report["gpu"]
    run.metrics["cli.quantize.s"] = (statistics.median(run.details["quantize_s"]), "s")


def _overheads(run: Run, w0: float, w1: float, stamp_calls: float) -> None:
    """Tracing overhead from the interleaved untraced (w0) and traced (w1)
    halves of one pass, and the timestamp wrappers' share of w0."""
    import tracing
    cost = tracing.stamp_cost_s()
    run.metrics["trace.overhead_frac"] = (w1 / w0 - 1.0, "ratio")
    run.metrics["trace.stamp_overhead_frac"] = (stamp_calls * cost / w0, "ratio")
    run.details["untraced_s"] = w0
    run.details["traced_s"] = w1
    run.details["stamp_cost_us"] = cost * 1e6


def execute(workload: str, sizes, seed: int, seconds: float, trace: bool,
            golden: dict | None, label: str, machine: dict) -> Run:
    """Run one workload; writes its result (and span) file under ``out/``."""
    run = Run()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if workload == "offline-search":
            run_offline(sizes, seed, seconds, trace, workdir, golden, run)
        else:
            run_serve(workload, sizes, seed, seconds, trace, workdir, golden, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = OUT / f"{label}{workload}_seed{seed}_trace{int(trace)}"
    if run.tracer is not None:
        run.tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine, "correct": not run.failures,
              "attempted": run.attempted, "failed": len(run.failures),
              "failed_frac": len(run.failures) / max(run.attempted, 1),
              "failures": run.failures[:20],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
              "details": run.details}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return run


def load_golden(machine: dict) -> dict | None:
    path = BENCH_DIR / "golden.json"
    if not path.exists():
        return None
    golden = json.loads(path.read_text(encoding="utf-8"))
    return golden if golden.get("machine") == golden_key(machine) else None


def write_golden() -> int:
    """Golden digests are the first-run digests of an untraced seed-0 run of
    each workload: the same path that checks them makes them."""
    import workloads as wl
    machine = machine_record()
    out = {"machine": golden_key(machine), "seed": 0, "workloads": {}}
    for name in WORKLOADS:
        run = execute(name, wl.FULL, 0, 0.0, False, None, "golden_", machine)
        if run.failures:
            return 1
        out["workloads"][name] = dict(sorted(run.first.items()))
        print(f"{name}: {len(run.first)} digests", flush=True)
    (BENCH_DIR / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    return 0


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; checks that each
    emits exactly the metrics BENCHMARK.json names, with their units, and
    that every time, rate and size is above zero."""
    import workloads as wl
    machine = machine_record()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            run = execute(name, wl.SMOKE, 0, 0.0, bool(trace), None, "smoke_", machine)
            got = {k: u for k, (_, u) in run.metrics.items()}
            if got != want[trace]:
                odd = sorted(k for k in set(got) | set(want[trace])
                             if got.get(k) != want[trace].get(k))
                problems.append(f"{name} trace={trace}: missing, extra or mis-unit {odd}")
            zero = [k for k, (v, u) in run.metrics.items() if u in MEASURED_UNITS and not v > 0]
            if zero:
                problems.append(f"{name} trace={trace}: not above zero {zero}")
            problems += [f"{name} trace={trace}: {f}" for f in run.failures]
            print(f"smoke {name} trace={trace}: {len(got)} metrics, "
                  f"{run.attempted} attempted, {len(run.failures)} failed", flush=True)
    for p in problems:
        print(f"smoke problem: {p}", flush=True)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    import_pmpd()
    sys.path.insert(0, str(BENCH_DIR))
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        ap.error("--workload is required")
    import workloads as wl
    machine = machine_record()
    print(f"machine: {json.dumps(machine, sort_keys=True)}", flush=True)
    run = execute(args.workload, wl.FULL, args.seed, args.seconds, bool(args.trace),
                  load_golden(machine), "", machine)
    for k, (v, u) in run.metrics.items():
        print(f"{k:44s} {v:14.6g} {u}", flush=True)
    for k in ("samples", "stage_s", "golden"):
        if k in run.details:
            print(f"{k}: {json.dumps(run.details[k], sort_keys=True)}", flush=True)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in run.metrics.items()}}), flush=True)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
