"""The benchmark's tracer (``benchmarks/tracing.py``) wraps pmpd functions
by attribute name, so renaming or deleting one breaks the traced benchmark.
Installing and removing the tracer here makes such a change fail the suite,
and so does a change that breaks a call the benchmark's workloads make."""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pmpd import learnsched, metrics, perf, quant, schedule, tinylm
from pmpd.schedule import FixedScheduler, PrecisionSchedule, StaticScheduler

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# one line per workload and trace setting of ``benchmarks/run.py --smoke``
SMOKE_LINE = re.compile(r"^smoke (\S+) trace=([01]): \d+ metrics, \d+ attempted, (\d+) failed$",
                        re.M)
OWNERS = (learnsched, metrics, perf, quant, schedule, tinylm, tinylm.ModelVariants)


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.patches.active
        assert tinylm.ModelVariants.weights is not before[-1]["weights"]
    finally:
        tracer.uninstall()
    for owner, attrs in zip(OWNERS, before):
        assert dict(vars(owner)).keys() == attrs.keys()
        assert all(vars(owner)[name] is value for name, value in attrs.items())


@pytest.mark.parametrize("n", [1, 2, 9])
def test_stamps_record_one_decode_step_per_token_after_the_first(monkeypatch, small_model, n):
    # TTFT runs to the first stamp and the inter-token gaps are the stamps'
    # spacing, so a run ending by length must stamp exactly n - 1 steps
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    patches, stamps = tracing.Patches(), tracing.Stamps()
    stamps.install(patches)
    try:
        t0 = stamps.begin()
        trace = tinylm.generate(small_model, list(b"The river"), FixedScheduler(4),
                                eos_id=small_model.config.vocab_size, max_new=n)
        assert len(stamps.steps) == n - 1
        timing = stamps.finish(t0)
    finally:
        patches.restore()
    assert trace.termination == "length" and len(trace.output_tokens) == n
    assert len(timing.gaps_s) == n - 1


def test_tracer_sees_every_prefill_and_decode_step_of_a_lockstep_call(monkeypatch, small_model):
    # the tracer reads the prompt and p of prefill(model, p, prompt) and the p
    # of decode_step(model, p, ...) from module globals looked up at call time
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    prompts = [list(b"The river"), list(b"A lantern"), list(b"Go"), list(b"The river"),
               list(b"Seven stones in a row")]
    schedulers = [StaticScheduler(PrecisionSchedule.two_phase(4, 2, k, 8)) for k in (0, 4, 8)]
    steps = []
    decode_step = tinylm.decode_step

    def counted(model, p, tokens, cache, rows):
        steps.append(len(rows))
        return decode_step(model, p, tokens, cache, rows)

    monkeypatch.setattr(tinylm, "decode_step", counted)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traces, _ = tinylm.decode_schedules(small_model, prompts, schedulers, max_new=8,
                                            eos_id=small_model.config.vocab_size)
    finally:
        tracer.uninstall()
    prefills = [attrs for name, *_, attrs in tracer.spans if name == "tinylm.prefill"]
    assert sorted(a["n"] for a in prefills) == sorted(map(len, prompts))
    assert {a["p"] for a in prefills} == {4}
    spans = [attrs["p"] for name, *_, attrs in tracer.spans if name == "tinylm.decode_step"]
    assert len(spans) == len(steps) and set(spans) == {4, 2}
    # one call per trie node and precision steps every row of the wave there
    assert 1 < max(steps) <= tinylm.WAVE and len(steps) < sum(steps)
    assert all(t.termination == "length" for row in traces for t in row)


def test_the_benchmark_warm_up_leaves_no_dequantization_to_its_requests(monkeypatch,
                                                                         tmp_path):
    # set_up reads every tensor at every precision, so all dequantization is
    # timed in setup_s: after it no forward pass may dequantize, or that cost
    # would land in the first request's ttft_ms
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    model = workloads.set_up(workloads.SMOKE, tmp_path).model

    def dequantize(*args):
        raise AssertionError("dequantized after the warm-up")

    monkeypatch.setattr(tinylm, "dequantize", dequantize)
    monkeypatch.setattr(quant, "dequantize", dequantize)
    for p in sorted(model.allowed_precisions()):
        model.resolved(p)
        _, cache = tinylm.prefill(model, p, list(b"The river"))
        tinylm.decode_step(model, p, [65], cache, [0])


def test_the_benchmark_smoke_run_checks_every_output_without_a_failure():
    # every workload at tiny size, untraced and traced, through the calls
    # benchmarks/workloads.py makes and the tracer's wrap points. Failures
    # only: benchmarks/test_smoke.py also checks the metrics it emits
    root = BENCHMARKS.parent
    proc = subprocess.run([sys.executable, str(BENCHMARKS / "run.py"), "--smoke"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    log = proc.stdout[-4000:] + proc.stderr[-4000:]
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    runs = {(name, trace): failed for name, trace, failed in SMOKE_LINE.findall(proc.stdout)}
    assert sorted(runs) == sorted((name, trace) for name in names for trace in "01"), log
    assert set(runs.values()) == {"0"}, log
