"""Seeded mutation fuzzing of every file pmpd reads back: a truncated or
bit-flipped weight file, schedule, scheduler net, label file or trace file,
used through ``cli.main``, must end in a ``PmpdError`` (exit 2 or 3), never
a traceback."""
import json
import random

import numpy as np
import pytest

from pmpd import cli, learnsched, quant, schedule, tinylm

CFG = tinylm.ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=8, vocab_size=16,
                         max_context=32)
GRID = schedule.SwitchGrid(3, 8)
MUTATIONS = 150  # per file


def mutations(data: bytes, rng: random.Random, n: int):
    """``n`` truncations or single-bit flips of ``data``."""
    for _ in range(n):
        i = rng.randrange(len(data))
        if rng.random() < 0.3:
            yield data[:i]
        else:
            yield data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    model = tinylm.ModelVariants.from_random(CFG, quant.PrecisionSet((4, 2)), seed=1,
                                             group_size=8)
    model.save(d / "model.pmpd")
    (d / "vocab.json").write_text(json.dumps({"tokens": list("abcdefghijklmno")}))
    sched = schedule.PrecisionSchedule((4, 2), 4, {4: 0, 2: 3}, 8)
    (d / "schedule.json").write_text(json.dumps(sched.to_json()))
    trace = tinylm.generate(model, [1, 2, 3], schedule.StaticScheduler(sched), max_new=8)
    (d / "traces.json").write_text(json.dumps({"traces": [trace.to_json()]}))
    net = learnsched.SchedulerNet.init(8, 8, 4, GRID, 4, 2, seed=0)
    (d / "net.json").write_text(json.dumps(net.to_json()))
    rng = np.random.default_rng(0)
    examples = [learnsched.LabeledExample(rng.normal(size=(t, 8)).astype(np.float32),
                                          rng.normal(size=(t, 8)).astype(np.float32),
                                          label, [0.5] * GRID.n, t)
                for t, label in ((3, 0), (5, 2))]
    learnsched.save_labels(d / "labels.jsonl", examples, GRID, 4, 2)
    return d


def generate(d, *flags):
    return ["generate", "--model", str(d / "model.pmpd"), "--vocab", str(d / "vocab.json"),
            "--prompt", "abcab", "--max-new", "8", *flags, "--out", str(d / "out.json")]


USES = {
    "model.pmpd": lambda d: [generate(d, "--fixed-precision", "2", "--prefill", "16")],
    "schedule.json": lambda d: [
        generate(d, "--schedule", str(d / "schedule.json")),
        ["perf", "--preset", "vicuna-7b", "--schedule", str(d / "schedule.json"),
         "--prompt-len", "16", "--gen-len", "8", "--out", str(d / "out.json")]],
    "net.json": lambda d: [generate(d, "--learned", str(d / "net.json"))],
    "labels.jsonl": lambda d: [
        ["train-scheduler", "--labels", str(d / "labels.jsonl"), "--hidden", "4",
         "--epochs", "1", "--out", str(d / "out.json")]],
    "traces.json": lambda d: [
        ["eval", "--traces", str(d / "traces.json"), "--references", str(d / "traces.json"),
         "--out", str(d / "out.json")]],
}


@pytest.mark.parametrize("name", USES)
def test_mutated_file_raises_only_pmpd_errors(files, name, capsys, monkeypatch):
    parser = cli.build_parser()  # building it dominates a call on these tiny inputs
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    argvs = USES[name](files)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    path = files / name
    original = path.read_bytes()
    escaped = []
    try:
        for k, data in enumerate(mutations(original, random.Random(name), MUTATIONS)):
            path.write_bytes(data)
            for argv in argvs:
                try:
                    cli.main(argv)  # maps every PmpdError to exit 2 or 3
                except Exception as exc:
                    escaped.append((k, argv[0], repr(exc)))
    finally:
        path.write_bytes(original)
    capsys.readouterr()
    assert not escaped, escaped
