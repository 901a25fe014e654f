"""The benchmark's tracer (``benchmarks/tracing.py``) wraps pmpd functions
by attribute name, so renaming or deleting one breaks the traced benchmark.
Installing and removing the tracer here makes such a change fail the suite."""
from pathlib import Path

from pmpd import learnsched, metrics, perf, quant, schedule, tinylm

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
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
