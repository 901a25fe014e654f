"""Seeded mutation fuzzing of every file pmpd reads back: a truncated or
bit-flipped weight file, vocabulary, schedule, scheduler net, label file,
trace file or perf config, or one whose JSON holds a value of the wrong type
or range, used through ``cli.main``, must end in a ``PmpdError`` (exit 2 or
3), never a traceback."""
import copy
import functools
import json
import operator
import random
import struct

import numpy as np
import pytest

from pmpd import cli, learnsched, perf, quant, schedule, tinylm

CFG = tinylm.ModelConfig(n_layers=1, n_heads=1, d_model=8, d_ff=8, vocab_size=16,
                         max_context=32)
GRID = schedule.SwitchGrid(3, 8)
MUTATIONS = 150  # per file
CONFUSIONS = 100  # per file
HUGE = "1e400"  # written as that JSON number, which Python reads as float("inf")
# No large finite integer: the switch grid, the RoPE tables and the KV cache
# allocate eagerly, so one would exercise the allocator, not the parser.
SUBSTITUTES = (HUGE, -1, 2.5, "x", [], {}, None, True)


def mutations(data: bytes, rng: random.Random, n: int):
    """``n`` truncations or single-bit flips of ``data``."""
    for _ in range(n):
        i = rng.randrange(len(data))
        if rng.random() < 0.3:
            yield data[:i]
        else:
            yield data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]


def dumps(doc) -> bytes:
    return json.dumps(doc).replace(f'"{HUGE}"', HUGE).encode("utf-8")


def read_doc(name: str, data: bytes):
    """The JSON a file holds: the weight file's metadata, the list of a label
    file's lines, or the whole file."""
    if name == "model.pmpd":
        (n,) = struct.unpack_from("<I", data, 8)
        return json.loads(data[12 : 12 + n])
    if name == "labels.jsonl":
        return [json.loads(line) for line in data.splitlines()]
    return json.loads(data)


def write_doc(name: str, data: bytes, doc) -> bytes:
    """``data`` holding ``doc`` instead; the weight file's length field is rewritten."""
    if name == "model.pmpd":
        (n,) = struct.unpack_from("<I", data, 8)
        blob = dumps(doc)
        return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + n :]
    if name == "labels.jsonl":
        return b"\n".join(dumps(line) for line in doc) + b"\n"
    return dumps(doc)


def value_paths(doc, path=()):
    """Path of every value in ``doc``, the root first; of a list, only the
    first and last elements."""
    yield path
    if isinstance(doc, dict):
        keys = list(doc)
    else:
        keys = sorted({0, len(doc) - 1}) if isinstance(doc, list) and doc else []
    for key in keys:
        yield from value_paths(doc[key], path + (key,))


def confusions(name: str, data: bytes, rng: random.Random, n: int):
    """``n`` copies of ``data`` with one JSON value, or the top-level object (of
    a label file, one line's), replaced by one of :data:`SUBSTITUTES`."""
    doc = read_doc(name, data)
    cases = [(path, sub) for path in value_paths(doc)
             if path or name != "labels.jsonl" for sub in SUBSTITUTES]
    for path, sub in rng.sample(cases, min(n, len(cases))):
        if not path:
            yield write_doc(name, data, sub)
            continue
        mutated = copy.deepcopy(doc)
        functools.reduce(operator.getitem, path[:-1], mutated)[path[-1]] = sub
        yield write_doc(name, data, mutated)


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
    (d / "hardware.json").write_text(json.dumps(perf.NPU_16K.to_json()))
    (d / "footprint.json").write_text(json.dumps(perf.FOOTPRINT_PRESETS["vicuna-7b"].to_json()))
    (d / "kernels.json").write_text(json.dumps({"16": 10.0, "4": 4.0, "2": 3.0}))
    return d


def generate(d, *flags):
    return ["generate", "--model", str(d / "model.pmpd"), "--vocab", str(d / "vocab.json"),
            "--prompt", "abcab", "--max-new", "8", *flags, "--out", str(d / "out.json")]


def perf_run(d, *flags):
    return ["perf", *flags, "--prompt-len", "16", "--gen-len", "8", "--out", str(d / "out.json")]


USES = {
    "model.pmpd": lambda d: [generate(d, "--fixed-precision", "2", "--prefill", "16")],
    "vocab.json": lambda d: [generate(d, "--fixed-precision", "2")],
    "schedule.json": lambda d: [
        generate(d, "--schedule", str(d / "schedule.json")),
        perf_run(d, "--preset", "vicuna-7b", "--schedule", str(d / "schedule.json"))],
    "net.json": lambda d: [generate(d, "--learned", str(d / "net.json"))],
    "labels.jsonl": lambda d: [
        ["train-scheduler", "--labels", str(d / "labels.jsonl"), "--hidden", "4",
         "--epochs", "1", "--out", str(d / "out.json")]],
    "traces.json": lambda d: [
        ["eval", "--traces", str(d / "traces.json"), "--references", str(d / "traces.json"),
         "--out", str(d / "out.json")]],
    "hardware.json": lambda d: [perf_run(d, "--preset", "vicuna-7b", "--hardware",
                                         str(d / "hardware.json"), "--fixed-precision", "2")],
    "footprint.json": lambda d: [perf_run(d, "--footprint", str(d / "footprint.json"),
                                          "--fixed-precision", "2")],
    "kernels.json": lambda d: [perf_run(d, "--preset", "vicuna-7b", "--schedule",
                                        str(d / "schedule.json"), "--gpu-kernels",
                                        str(d / "kernels.json"))],
}


def typed_substitutions(name: str, data: bytes):
    """``(path, bytes)`` of ``data`` with one value replaced: an integer by a
    fractional number or by ``true``, a boolean by the string of its name."""
    doc = read_doc(name, data)
    for path in value_paths(doc):
        value = functools.reduce(operator.getitem, path, doc)
        if type(value) is bool:
            subs = [str(value).lower()]
        elif type(value) is int:
            subs = [value + 0.5, True]
        else:
            continue
        for sub in subs:
            mutated = copy.deepcopy(doc)
            functools.reduce(operator.getitem, path[:-1], mutated)[path[-1]] = sub
            yield path, write_doc(name, data, mutated)


def outcomes(files, name, variants, monkeypatch) -> list:
    """Run every use of file ``name`` on each variant of its bytes; per run,
    ``(variant index, command, result)``, the result being the exit code of
    ``cli.main`` (which maps every ``PmpdError`` to 2 or 3) or the repr of
    the exception that escaped it."""
    parser = cli.build_parser()  # building it dominates a call on these tiny inputs
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    argvs = USES[name](files)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    path = files / name
    original = path.read_bytes()
    results = []
    try:
        for k, data in enumerate(variants(original)):
            path.write_bytes(data)
            for argv in argvs:
                try:
                    results.append((k, argv[0], cli.main(argv)))
                except Exception as exc:
                    results.append((k, argv[0], repr(exc)))
    finally:
        path.write_bytes(original)
    return results


def escapes(files, name, variants, monkeypatch) -> list:
    """The runs of :func:`outcomes` whose exception escaped ``cli.main``."""
    return [r for r in outcomes(files, name, variants, monkeypatch) if isinstance(r[2], str)]


@pytest.mark.parametrize("name", USES)
def test_mutated_file_raises_only_pmpd_errors(files, name, capsys, monkeypatch):
    escaped = escapes(files, name,
                      lambda data: mutations(data, random.Random(name), MUTATIONS), monkeypatch)
    capsys.readouterr()
    assert not escaped, escaped


@pytest.mark.parametrize("name", USES)
def test_type_confused_json_raises_only_pmpd_errors(files, name, capsys, monkeypatch):
    escaped = escapes(files, name,
                      lambda data: confusions(name, data, random.Random(name), CONFUSIONS),
                      monkeypatch)
    capsys.readouterr()
    assert not escaped, escaped


@pytest.mark.parametrize("name", USES)
def test_fractional_integers_and_string_booleans_exit_2(files, name, capsys, monkeypatch):
    # int(4.5) is 4, operator.index(True) is 1 and bool("false") is True: a
    # reader that coerces instead of checking would run on a value the file
    # never held
    subs = list(typed_substitutions(name, (files / name).read_bytes()))
    results = outcomes(files, name, lambda data: (b for _, b in subs), monkeypatch)
    capsys.readouterr()
    assert len(results) == len(subs) * len(USES[name](files))
    wrong = [(subs[k][0], command, result) for k, command, result in results
             if result != cli.EXIT_INPUT_ERROR]
    assert not wrong, wrong
