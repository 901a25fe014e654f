import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from pmpd import cli, learnsched, perf, tinylm
from pmpd.errors import FormatError, InputError
from pmpd.quant import FULL_PRECISION
from pmpd.schedule import FixedScheduler, PrecisionSchedule, SwitchGrid
from pmpd.util import read_json

TINY = ["--layers", "2", "--heads", "2", "--d-model", "64", "--d-ff", "128",
        "--max-context", "128"]


def run(argv):
    """The exit code of ``cli.main``, also of argparse's ``SystemExit`` on a usage error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def quantize(out, seed="7"):
    assert run(["quantize", "--random", "--seed", seed, "--precisions", "4,3,2",
                *TINY, "--out", str(out)]) == 0


def test_quantize_is_deterministic_and_tagged(tmp_path):
    a, b = tmp_path / "a.pmpd", tmp_path / "b.pmpd"
    quantize(a)
    quantize(b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()[:4] == b"PMPD"


def test_generate_fixed_equals_all_high_schedule(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("allhigh.json").write_text(json.dumps(
        {"precisions": [4], "prefill": 4, "st": {"4": 0}, "OL": 8, "feasible": True}))
    assert run(["generate", "--model", "model.pmpd", "--limit", "3",
                "--fixed-precision", "4", "--max-new", "8", "--seed", "7",
                "--out", "fixed.json"]) == 0
    assert run(["generate", "--model", "model.pmpd", "--limit", "3",
                "--schedule", "allhigh.json", "--max-new", "8", "--seed", "7",
                "--out", "sched.json"]) == 0
    fixed = read_json("fixed.json")["traces"]
    sched = read_json("sched.json")["traces"]
    assert len(fixed) == len(sched) == 3
    for f, s in zip(fixed, sched):
        assert f["output_tokens"] == s["output_tokens"]
        assert f["logits_hashes"] == s["logits_hashes"]


@pytest.mark.parametrize("temperature", [None, 0.7])
def test_generate_writes_the_traces_of_per_prompt_generation(tmp_path, monkeypatch,
                                                              temperature):
    # one lockstep call over prompts of three lengths, given longest first
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    lines = ["The quick brown fox jumps over the lazy dog", "A lantern", "Rain on the roof"]
    Path("prompts.txt").write_text("\n".join(lines) + "\n")
    sampling = [] if temperature is None else ["--temperature", str(temperature)]
    assert run(["generate", "--model", "model.pmpd", "--prompts", "prompts.txt",
                "--fixed-precision", "3", "--max-new", "10", "--seed", "5", *sampling,
                "--out", "t.json"]) == 0
    model = tinylm.ModelVariants.load("model.pmpd")
    cfg = tinylm.SamplerConfig(temperature=temperature, seed=5)
    expected = []
    for line in lines:
        trace = tinylm.generate(model, list(line.encode()), FixedScheduler(3), cfg,
                                max_new=10)
        expected.append({**trace.to_json(), "prompt": line,
                         "text": tinylm.ByteTokenizer().decode(trace.output_tokens)})
    assert read_json("t.json")["traces"] == expected


def test_eval_against_self_is_perfect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    assert run(["generate", "--model", "model.pmpd", "--limit", "3",
                "--fixed-precision", "3", "--max-new", "8", "--out", "t.json"]) == 0
    assert run(["eval", "--traces", "t.json", "--references", "t.json",
                "--out", "e.json"]) == 0
    report = read_json("e.json")
    assert report["mean_fidelity"] == 1.0
    assert all(row["fidelity"] == 1.0 for row in report["per_prompt"])


def test_eval_against_full_precision_references(tmp_path, monkeypatch):
    # fp16 reference traces embed a constant-16 schedule; eval must parse them
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    assert run(["generate", "--model", "model.pmpd", "--limit", "3",
                "--fixed-precision", "3", "--max-new", "8", "--out", "t.json"]) == 0
    assert run(["generate", "--model", "model.pmpd", "--limit", "3",
                "--fixed-precision", "16", "--max-new", "8", "--out", "refs.json"]) == 0
    assert run(["eval", "--traces", "t.json", "--references", "refs.json",
                "--out", "e.json"]) == 0
    assert 0.0 <= read_json("e.json")["mean_fidelity"] <= 1.0


GOOD_TRACE = {"prompt_tokens": [1, 2], "output_tokens": [3, 4], "precisions": [4, 2],
              "logits_hashes": ["ab", "cd"], "termination": "length", "p_prefill": 4}
BAD_FIELDS = {"prompt-token-string": {"prompt_tokens": ["a", 2]},
              "output-token-string": {"output_tokens": [3, "x"]},
              "precision-strings": {"precisions": ["a", "b"]},
              "precision-null": {"precisions": [4, None]},
              "hash-number": {"logits_hashes": ["ab", 5]},
              "unknown-termination": {"termination": "stop"},
              "float-prefill": {"p_prefill": 4.0},
              # scored as 2 tokens at avg_bitwidth 2.4 over 5 precisions
              "lists-disagree": {"precisions": [4, 2, 2, 2, 2], "logits_hashes": []},
              # scored at 16 bits, though its schedule charges both tokens at 4
              "precisions-contradict-schedule": {
                  "precisions": [16, 16],
                  "schedule": PrecisionSchedule.constant(4, 8).to_json()},
              "prefill-contradicts-schedule": {
                  "p_prefill": 2,
                  "schedule": PrecisionSchedule.two_phase(4, 2, 1, 8).to_json()}}
BAD_TRACES = {"no-traces": {"foo": 1}, "non-object-trace": {"traces": [5]},
              "no-trace": {"traces": []},
              **{name: {"traces": [{**GOOD_TRACE, **fields}]}
                 for name, fields in BAD_FIELDS.items()}}


@pytest.mark.parametrize("obj", BAD_TRACES.values(), ids=BAD_TRACES.keys())
def test_malformed_eval_traces_are_input_error(tmp_path, monkeypatch, obj):
    monkeypatch.chdir(tmp_path)
    Path("t.json").write_text(json.dumps(obj))
    code = run(["eval", "--traces", "t.json", "--references", "t.json", "--out", "e.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("e.json").exists()


def test_eval_refuses_more_traces_than_references(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("t.json").write_text(json.dumps({"traces": [GOOD_TRACE, GOOD_TRACE]}))
    Path("r.json").write_text(json.dumps({"traces": [GOOD_TRACE]}))
    code = run(["eval", "--traces", "t.json", "--references", "r.json", "--out", "e.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("e.json").exists()


def test_empty_reference_trace_is_input_error(tmp_path, monkeypatch):
    # a reference trace is scored against but never averaged, so only the
    # parser can refuse one without tokens
    monkeypatch.chdir(tmp_path)
    empty = {**GOOD_TRACE, "output_tokens": [], "precisions": [], "logits_hashes": []}
    Path("t.json").write_text(json.dumps({"traces": [GOOD_TRACE]}))
    Path("r.json").write_text(json.dumps({"traces": [empty]}))
    code = run(["eval", "--traces", "t.json", "--references", "r.json", "--out", "e.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("e.json").exists()


def test_missing_model_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["generate", "--model", "nope.pmpd", "--limit", "1",
                "--fixed-precision", "3", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_directory_as_model_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("model.pmpd").mkdir()
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--fixed-precision", "3", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_non_utf8_prompt_file_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("prompts.txt").write_bytes(b"caf\xe9 au lait\n")
    code = run(["generate", "--model", "model.pmpd", "--prompts", "prompts.txt",
                "--fixed-precision", "3", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_malformed_vocab_json_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("vocab.json").write_text('{"tokens": ["a", ')
    code = run(["generate", "--model", "model.pmpd", "--vocab", "vocab.json",
                "--prompt", "a", "--fixed-precision", "3", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


BAD_VOCAB = {"tokens-not-a-list": '{"tokens": 5}',
             "non-integer-eos": '{"tokens": ["a"], "eos": "x"}'}


@pytest.mark.parametrize("text", BAD_VOCAB.values(), ids=BAD_VOCAB.keys())
def test_vocab_with_wrong_field_types_is_format_error(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("vocab.json").write_text(text)
    with pytest.raises(FormatError):
        tinylm.VocabTokenizer.from_json("vocab.json")
    code = run(["generate", "--model", "model.pmpd", "--vocab", "vocab.json",
                "--prompt", "a", "--fixed-precision", "3", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


HUGE = "1e400"  # a JSON number Python reads as float("inf")


def _dumps(obj) -> str:
    """JSON text of ``obj`` with every :data:`HUGE` string written as the number."""
    return json.dumps(obj).replace(f'"{HUGE}"', HUGE)


def _rewrite_metadata(path, mutate) -> None:
    data = Path(path).read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 8)
    meta = json.loads(data[12 : 12 + meta_len])
    mutate(meta)
    blob = _dumps(meta).encode("utf-8")
    Path(path).write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                           + data[12 + meta_len :])


BAD_METADATA = {
    "negative-rows": lambda meta: meta["tensors"][0].update(rows=-1),
    "negative-cols": lambda meta: meta["tensors"][1].update(cols=-64),
    "norms-not-a-dict": lambda meta: meta.update(norms=[1.0]),
    "non-numeric-norm": lambda meta: meta["norms"].update(final_norm=["x"] * 64),
    "non-integer-seed": lambda meta: meta["init"].update(seed="seven"),
    "overflowing-rows": lambda meta: meta["tensors"][0].update(rows=HUGE),
    "overflowing-precision": lambda meta: meta.update(precisions=[HUGE]),
    "float-heads": lambda meta: meta["config"].update(n_heads=2.0),
    "string-precisions": lambda meta: meta.update(precisions="4"),
    "fractional-precision": lambda meta: meta.update(precisions=[4.7, 2]),
}


@pytest.mark.parametrize("mutate", BAD_METADATA.values(), ids=BAD_METADATA.keys())
def test_malformed_model_metadata_is_format_error(tmp_path, monkeypatch, mutate):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    _rewrite_metadata("model.pmpd", mutate)
    with pytest.raises(FormatError):
        tinylm.ModelVariants.load("model.pmpd")
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--fixed-precision", "3", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_bad_schedule_precision_is_contract_violation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("bad.json").write_text(json.dumps(
        {"precisions": [6, 2], "prefill": 6, "st": {"6": 0, "2": 4}, "OL": 8,
         "feasible": True}))
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--schedule", "bad.json", "--max-new", "8", "--out", "t.json"])
    assert code == cli.EXIT_CONTRACT_VIOLATION


def test_a_decode_precision_the_model_lacks_is_contract_violation(tmp_path, monkeypatch):
    # its prefill precision is served, so the walk refuses it when it resolves
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("bad.json").write_text(json.dumps(PrecisionSchedule.two_phase(4, 1, 2, 8).to_json()))
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--schedule", "bad.json", "--max-new", "8", "--out", "t.json"])
    assert code == cli.EXIT_CONTRACT_VIOLATION
    assert not Path("t.json").exists()


@pytest.mark.parametrize("gen_len", ["0", "9"])
def test_perf_refuses_a_gen_len_outside_the_schedule(tmp_path, monkeypatch, gen_len):
    monkeypatch.chdir(tmp_path)
    Path("s.json").write_text(json.dumps(PrecisionSchedule.two_phase(4, 2, 4, 8).to_json()))
    code = run(["perf", "--preset", "vicuna-7b", "--schedule", "s.json",
                "--prompt-len", "8", "--gen-len", gen_len, "--out", "perf.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("perf.json").exists()


INVALID_SCHEDULES = {
    "missing-switch-point": {"precisions": [4, 2], "prefill": 4, "st": {"4": 0}, "OL": 8},
    "precedence-violation": {"precisions": [4, 2], "prefill": 4, "st": {"4": 5, "2": 1},
                             "OL": 8},
    "st-not-a-dict": {"precisions": [4, 2], "prefill": 4, "st": [0, 4], "OL": 8},
}


@pytest.mark.parametrize("obj", INVALID_SCHEDULES.values(), ids=INVALID_SCHEDULES.keys())
def test_invalid_schedule_is_input_error(tmp_path, monkeypatch, obj):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps(obj))
    code = run(["perf", "--preset", "vicuna-7b", "--schedule", "bad.json",
                "--prompt-len", "8", "--gen-len", "8", "--out", "perf.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("perf.json").exists()
    quantize("model.pmpd")
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--schedule", "bad.json", "--max-new", "8", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


@pytest.fixture
def no_decode(monkeypatch):
    """Fails the test if a prompt is decoded."""
    def decode_schedules(*args, **kwargs):
        raise AssertionError("a prompt was decoded before the flag was refused")

    monkeypatch.setattr(tinylm, "decode_schedules", decode_schedules)


@pytest.mark.parametrize("temperature", ["0", "-1", "nan", "inf"])
def test_generate_rejects_a_temperature_that_is_not_positive(tmp_path, monkeypatch, no_decode,
                                                             temperature):
    # greedy decoding is the omitted flag; --temperature 0 must not sample, and
    # --temperature inf sampled uniformly, ignoring the logits
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run(["generate", "--model", "model.pmpd", "--limit", "1", "--fixed-precision", "3",
                "--temperature", temperature, "--max-new", "4", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("t.json").exists()


def test_generate_refuses_an_empty_prompt_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run(["generate", "--model", "model.pmpd", "--prompt", "", "--fixed-precision", "3",
                "--max-new", "4", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert "prompt 0 is empty" in capsys.readouterr().err
    assert not Path("t.json").exists()


NON_FINITE_FLOORS = {
    "q-ref-nan": ["calibrate-phase", "--q-ref", "nan", "--tolerance", "0.1", "--max-new", "4"],
    "tolerance-nan": ["calibrate-phase", "--q-ref", "0.3", "--tolerance", "nan",
                      "--max-new", "4"],
    "tolerance-inf": ["calibrate-phase", "--q-ref", "0.3", "--tolerance", "inf",
                      "--max-new", "4"],
    "solve-tolerance-inf": ["solve-static", "--precisions", "3,2", "--prefill", "4",
                            "--q-ref", "0.3", "--tolerance", "inf", "--grid-n", "3",
                            "--ol", "4"],
}


@pytest.mark.parametrize("argv", NON_FINITE_FLOORS.values(), ids=NON_FINITE_FLOORS.keys())
def test_a_non_finite_quality_floor_exits_2_before_any_decode(tmp_path, monkeypatch, no_decode,
                                                              argv):
    # a NaN floor picked the fallback and wrote NaN, which is not JSON; an
    # infinite tolerance made every candidate feasible
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run([argv[0], "--model", "model.pmpd", "--limit", "1", *argv[1:], "--out", "o.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("o.json").exists()


PROMPT_COMMANDS = [
    ["generate", "--fixed-precision", "3", "--max-new", "4"],
    ["calibrate-phase", "--q-ref", "1.0", "--tolerance", "1.0", "--max-new", "4"],
    ["solve-static", "--precisions", "3,2", "--prefill", "4", "--q-ref", "0.0",
     "--tolerance", "0.0", "--grid-n", "3", "--ol", "4"],
    ["gen-labels", "--grid-n", "3", "--ol", "4", "--high", "3", "--low", "2"],
]


@pytest.mark.parametrize("argv", PROMPT_COMMANDS)
def test_a_negative_limit_is_an_input_error(tmp_path, monkeypatch, argv):
    # prompts[:-1] would quietly run on every prompt but the last
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run([argv[0], "--model", "model.pmpd", "--limit", "-1", *argv[1:], "--out", "o.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("o.json").exists()


@pytest.mark.parametrize("argv", PROMPT_COMMANDS)
def test_a_zero_limit_is_an_input_error(tmp_path, monkeypatch, argv):
    # every command refuses an empty prompt set alike: generate would write
    # {"traces": []}, which eval refuses
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run([argv[0], "--model", "model.pmpd", "--limit", "0", *argv[1:], "--out", "o.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("o.json").exists()


def test_conflicting_scheduler_flags_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--fixed-precision", "3", "--learned", "x.json", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


PERF = ["perf", "--prompt-len", "8", "--gen-len", "8"]
CONFLICTS = {
    "schedule-learned": ["generate", "--schedule", "s.json", "--learned", "n.json"],
    "schedule-fixed": ["generate", "--schedule", "s.json", "--fixed-precision", "3"],
    "learned-fixed": ["generate", "--learned", "n.json", "--fixed-precision", "3"],
    "prompt-prompts": ["generate", "--fixed-precision", "3", "--prompt", "x",
                       "--prompts", "p.txt"],
    # a schedule file carries its own prefill precision
    "schedule-prefill": ["generate", "--schedule", "s.json", "--prefill", "2"],
    "model-footprint": [*PERF, "--model", "model.pmpd", "--footprint", "f.json",
                        "--fixed-precision", "3"],
    "model-preset": [*PERF, "--model", "model.pmpd", "--preset", "vicuna-7b",
                     "--fixed-precision", "3"],
    "footprint-preset": [*PERF, "--footprint", "f.json", "--preset", "vicuna-7b",
                         "--fixed-precision", "3"],
    "perf-schedule-fixed": [*PERF, "--preset", "vicuna-7b", "--schedule", "s.json",
                            "--fixed-precision", "3"],
}


@pytest.mark.parametrize("argv", CONFLICTS.values(), ids=CONFLICTS.keys())
def test_conflicting_flags_exit_2_and_write_nothing(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    Path("s.json").write_text(json.dumps(
        {"precisions": [4], "prefill": 4, "st": {"4": 0}, "OL": 8, "feasible": True}))
    Path("n.json").write_text(json.dumps(
        learnsched.SchedulerNet.init(64, 64, 4, SwitchGrid(3, 8), 4, 2).to_json()))
    Path("f.json").write_text(json.dumps(perf.FOOTPRINT_PRESETS["vicuna-7b"].to_json()))
    Path("p.txt").write_text("hello\n")
    if argv[0] == "generate":
        argv = [*argv, "--model", "model.pmpd", "--limit", "1", "--max-new", "4"]
    assert run([*argv, "--out", "out.json"]) == cli.EXIT_INPUT_ERROR
    assert not Path("out.json").exists()


def test_unknown_perf_preset_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run([*PERF, "--preset", "vicuna-70b", "--fixed-precision", "3", "--out", "p.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("p.json").exists()


def test_no_overlap_applies_to_a_hardware_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("hw.json").write_text(json.dumps(perf.NPU_16K.to_json()))
    source = ["--preset", "vicuna-7b", "--fixed-precision", "3"]
    for name, flags in (("file.json", ["--hardware", "hw.json", "--no-overlap"]),
                        ("preset.json", ["--hw-preset", "npu-16k", "--no-overlap"]),
                        ("overlap.json", ["--hardware", "hw.json"])):
        assert run([*PERF, *source, *flags, "--out", name]) == 0
    file, preset, overlap = (read_json(n) for n in ("file.json", "preset.json", "overlap.json"))
    assert file["hardware"]["overlap"] is False
    assert file["report"] == preset["report"]
    assert file["report"]["total_s"] > overlap["report"]["total_s"]


def test_no_kv_traffic_prices_the_footprint_with_no_kv_bytes(tmp_path, monkeypatch):
    # the flag is the footprint setting kv_bytes_per_token 0: report and --csv
    # rows equal a footprint file's that says so, and the payload echoes the
    # footprint as given
    monkeypatch.chdir(tmp_path)
    given = perf.FOOTPRINT_PRESETS["vicuna-7b"].to_json()
    Path("f.json").write_text(json.dumps({**given, "kv_bytes_per_token": 0}))
    source = ["--fixed-precision", "3", "--prompt-len", "512", "--gen-len", "24"]
    assert run(["perf", "--preset", "vicuna-7b", "--no-kv-traffic", *source,
                "--csv", "flag.csv", "--out", "flag.json"]) == 0
    assert run(["perf", "--footprint", "f.json", *source,
                "--csv", "file.csv", "--out", "file.json"]) == 0
    assert run(["perf", "--preset", "vicuna-7b", *source, "--out", "kv.json"]) == 0
    flag, file, kv = (read_json(n) for n in ("flag.json", "file.json", "kv.json"))
    assert flag["report"] == file["report"]
    assert Path("flag.csv").read_text() == Path("file.csv").read_text()
    assert flag["footprint"] == given and file["footprint"]["kv_bytes_per_token"] == 0
    assert flag["report"]["total_s"] < kv["report"]["total_s"]


def test_perf_with_gpu_kernels_and_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("sched.json").write_text(json.dumps(
        {"precisions": [3, 2], "prefill": 3, "st": {"3": 0, "2": 40}, "OL": 100,
         "feasible": True}))
    Path("kern.json").write_text(json.dumps({"3": 8.1, "2": 7.0, "16": 97.1}))
    assert run(["perf", "--preset", "vicuna-7b", "--hw-preset", "npu-16k",
                "--schedule", "sched.json", "--prompt-len", "128", "--gen-len", "100",
                "--gpu-kernels", "kern.json", "--csv", "sweep.csv",
                "--out", "perf.json"]) == 0
    report = read_json("perf.json")
    assert report["gpu"]["weighted_latency_us"] == pytest.approx(7.44)
    assert report["report"]["speedup_vs_fp16"] > 1.0
    header, *lines = Path("sweep.csv").read_text().splitlines()
    assert header == "scheme,avg_bitwidth,total_s,tokens_per_s,speedup_vs_fp16"
    rows = {name: [float(x) for x in rest] for name, *rest in (ln.split(",") for ln in lines)}
    # every row is the report of its own scheme, tokens per decode second included
    fp, hw = perf.FOOTPRINT_PRESETS["vicuna-7b"], perf.NPU_16K
    schemes = {"pmpd": PrecisionSchedule.two_phase(3, 2, 40, 100, p_prefill=3),
               "uniform-high": PrecisionSchedule.constant(3, 100),
               "fp16": PrecisionSchedule.constant(FULL_PRECISION, 100)}
    assert list(rows) == list(schemes)
    for name, sched in schemes.items():
        r = perf.pipeline_perf(fp, sched, hw, 128, 100)
        assert rows[name] == [r.avg_bitwidth, r.total_s, 100 / r.decode_s, r.speedup_vs_fp16]
    assert rows["pmpd"][1] == report["report"]["total_s"]
    assert rows["uniform-high"][1] == report["report"]["uniform_high_total_s"]
    assert rows["uniform-high"][3] == report["report"]["uniform_high_speedup"]
    assert rows["fp16"][1] == report["report"]["fp16_total_s"] and rows["fp16"][3] == 1.0


BAD_KERNELS = {"non-integer-key": {"3": 8.1, "x": 7.0, "16": 97.1},
               "non-numeric-value": {"3": "fast", "16": 97.1},
               "zero-latency": {"3": 0, "16": 97.1}}


@pytest.mark.parametrize("table", BAD_KERNELS.values(), ids=BAD_KERNELS.keys())
def test_malformed_gpu_kernels_is_input_error(tmp_path, monkeypatch, table):
    monkeypatch.chdir(tmp_path)
    Path("kern.json").write_text(json.dumps(table))
    code = run(["perf", "--preset", "vicuna-7b", "--fixed-precision", "3",
                "--prompt-len", "8", "--gen-len", "8", "--gpu-kernels", "kern.json",
                "--out", "perf.json"])
    assert code == cli.EXIT_INPUT_ERROR


BAD_NETS = {
    "net-is-a-list": lambda net: [net],
    "overflowing-grid-n": lambda net: net["grid"].update(n=HUGE),
    "overflowing-p-high": lambda net: net.update(p_high=HUGE),
    "p-high-below-p-low": lambda net: net.update(p_high=2, p_low=4),
    "p-high-equal-to-p-low": lambda net: net.update(p_high=4, p_low=4),
    "overflowing-feature-block": lambda net: net.update(feature_block=HUGE),
    # the [d_k, 1] query a matmul refused with a ValueError traceback
    "query-not-a-vector": lambda net: net["q"].update(shape=[net["q"]["shape"][0], 1]),
}


@pytest.mark.parametrize("mutate", BAD_NETS.values(), ids=BAD_NETS.keys())
def test_malformed_learned_net_is_format_error(tmp_path, monkeypatch, mutate):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    net = learnsched.SchedulerNet.init(64, 64, 4, SwitchGrid(3, 8), 4, 2).to_json()
    Path("net.json").write_text(_dumps(mutate(net) or net))
    with pytest.raises(FormatError):
        learnsched.SchedulerNet.from_json(read_json("net.json"))
    prefills = []  # refused as the net is read, before any prefill
    monkeypatch.setattr(tinylm, "prefill", lambda *args: prefills.append(args))
    code = run(["generate", "--model", "model.pmpd", "--limit", "1", "--learned",
                "net.json", "--prefill", "4", "--max-new", "4", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR and prefills == []


@pytest.mark.parametrize("field", ["label", "prompt_len"])
def test_overflowing_label_example_is_format_error(tmp_path, monkeypatch, field):
    monkeypatch.chdir(tmp_path)
    example = learnsched.LabeledExample(np.ones((3, 8), np.float32),
                                        np.ones((3, 8), np.float32), 0, [0.5] * 3, 3)
    learnsched.save_labels("labels.jsonl", [example], SwitchGrid(3, 8), 4, 2)
    header, line = Path("labels.jsonl").read_text().splitlines()
    obj = json.loads(line)
    obj[field] = HUGE
    Path("labels.jsonl").write_text(f"{header}\n{_dumps(obj)}\n")
    with pytest.raises(FormatError):
        learnsched.load_labels("labels.jsonl")
    code = run(["train-scheduler", "--labels", "labels.jsonl", "--hidden", "4",
                "--epochs", "1", "--out", "net.json"])
    assert code == cli.EXIT_INPUT_ERROR


# (rows, K width, V width) of each label example, and --hidden
BAD_TRAINING = {"mixed-widths": ([(3, 8, 8), (3, 8, 6)], "4"),
                "zero-rows": ([(3, 8, 8), (0, 8, 8)], "4"),
                "zero-width": ([(3, 8, 0)], "4"),
                "zero-hidden": ([(3, 8, 8)], "0"),
                "no-examples": ([], "4")}


@pytest.mark.parametrize("shapes, hidden", BAD_TRAINING.values(), ids=BAD_TRAINING.keys())
def test_unusable_training_input_is_input_error(tmp_path, monkeypatch, shapes, hidden):
    monkeypatch.chdir(tmp_path)
    examples = [learnsched.LabeledExample(np.ones((t, d_k), np.float32),
                                          np.ones((t, d_v), np.float32), 0, [0.5] * 3, t)
                for t, d_k, d_v in shapes]
    learnsched.save_labels("labels.jsonl", examples, SwitchGrid(3, 8), 4, 2)
    code = run(["train-scheduler", "--labels", "labels.jsonl", "--hidden", hidden,
                "--epochs", "1", "--out", "net.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_an_empty_label_file_is_format_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("labels.jsonl").write_text("")
    with pytest.raises(FormatError, match="is empty"):
        learnsched.load_labels("labels.jsonl")
    code = run(["train-scheduler", "--labels", "labels.jsonl", "--hidden", "4",
                "--epochs", "1", "--out", "net.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("net.json").exists()


@pytest.mark.parametrize("flag, value", [("--batch", "0"), ("--batch", "-1"),
                                         ("--epochs", "-3"), ("--lr", "-5"), ("--lr", "nan")])
def test_bad_training_settings_are_input_errors(tmp_path, monkeypatch, flag, value):
    # unchecked, a batch below 1 breaks the batch loop with a traceback, and a
    # negative epoch count or learning rate writes an untrained or ascended net
    monkeypatch.chdir(tmp_path)
    example = learnsched.LabeledExample(np.ones((3, 8), np.float32),
                                        np.ones((3, 8), np.float32), 0, [0.5] * 3, 3)
    learnsched.save_labels("labels.jsonl", [example], SwitchGrid(3, 8), 4, 2)
    code = run(["train-scheduler", "--labels", "labels.jsonl", "--hidden", "4",
                "--epochs", "1", flag, value, "--out", "net.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("net.json").exists()


OVERFLOWING = {"int-hardware": ("--hardware", '{"mac_units": 1e400, "clock_hz": 1e9, '
                                             '"mem_bw_bytes_per_s": 32e9}'),
               "float-hardware": ("--hardware", '{"mac_units": 4096, "clock_hz": 1e400, '
                                                '"mem_bw_bytes_per_s": 1e400}'),
               "int-footprint": ("--footprint", '{"attn_params": 1e400, "mlp_params": 1, '
                                                '"embed_params": 1, "n_layers": 1, '
                                                '"kv_bytes_per_token": 1}')}


@pytest.mark.parametrize("flag, text", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_overflowing_perf_config_is_input_error(tmp_path, monkeypatch, flag, text):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(text)
    source = [] if flag == "--footprint" else ["--preset", "vicuna-7b"]
    code = run(["perf", *source, flag, "cfg.json", "--fixed-precision", "3",
                "--prompt-len", "8", "--gen-len", "8", "--out", "perf.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_read_json_errors_are_typed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(FormatError):
        read_json(bad)


def _write_labels(edit_header) -> None:
    example = learnsched.LabeledExample(np.ones((3, 8), np.float32),
                                        np.ones((3, 8), np.float32), 0, [0.5] * 3, 3)
    learnsched.save_labels("labels.jsonl", [example], SwitchGrid(3, 8), 4, 2)
    header, line = Path("labels.jsonl").read_text().splitlines()
    header = json.loads(header)
    edit_header(header)
    Path("labels.jsonl").write_text(f"{json.dumps(header)}\n{line}\n")


def _write_json(name, obj):
    return lambda: Path(name).write_text(json.dumps(obj))


BAD_SWITCH_POINTS = {"precisions": [4, 2], "prefill": 4, "st": {"4": 0}, "OL": 8}
BAD_GRID = {"n": 1, "OL": 8}
GENERATE = ["generate", "--model", "model.pmpd", "--prompt", "a", "--max-new", "4"]
# (write the input, read it in code, read it through the CLI, what the error names)
OUT_OF_DOMAIN = {
    "schedule": (_write_json("in.json", BAD_SWITCH_POINTS),
                 lambda: PrecisionSchedule.from_json(read_json("in.json")),
                 [*PERF, "--preset", "vicuna-7b", "--schedule", "in.json"], "schedule JSON"),
    "hardware": (_write_json("in.json", {"mac_units": 0, "clock_hz": 1e9,
                                         "mem_bw_bytes_per_s": 32e9}),
                 lambda: perf.HardwareConfig.from_json(read_json("in.json")),
                 [*PERF, "--preset", "vicuna-7b", "--hardware", "in.json",
                  "--fixed-precision", "3"], "hardware JSON"),
    "footprint": (_write_json("in.json", {**perf.FOOTPRINT_PRESETS["vicuna-7b"].to_json(),
                                          "group_size": 0}),
                  lambda: perf.ModelFootprint.from_json(read_json("in.json")),
                  [*PERF, "--footprint", "in.json", "--fixed-precision", "3"],
                  "footprint JSON"),
    "scheduler-net": (_write_json("in.json", {**learnsched.SchedulerNet.init(
                          64, 64, 4, SwitchGrid(3, 8), 4, 2).to_json(), "grid": BAD_GRID}),
                      lambda: learnsched.SchedulerNet.from_json(read_json("in.json")),
                      [*GENERATE, "--learned", "in.json", "--prefill", "4"],
                      "scheduler net JSON"),
    "label-header": (lambda: _write_labels(lambda header: header.update(grid=BAD_GRID)),
                     lambda: learnsched.load_labels("labels.jsonl"),
                     ["train-scheduler", "--labels", "labels.jsonl", "--hidden", "4",
                      "--epochs", "1"], "label file labels.jsonl"),
    # refused as the file is read, naming it, not by the net built from it
    "label-header-ascending-precisions": (
        lambda: _write_labels(lambda header: header.update(p_high=2, p_low=4)),
        lambda: learnsched.load_labels("labels.jsonl"),
        ["train-scheduler", "--labels", "labels.jsonl", "--hidden", "4", "--epochs", "1"],
        "label file labels.jsonl"),
    "weight-file-metadata": (
        lambda: _rewrite_metadata("model.pmpd", lambda meta: meta.update(precisions=[9])),
        lambda: tinylm.ModelVariants.load("model.pmpd"),
        [*GENERATE, "--fixed-precision", "3"], "weight file metadata"),
    "vocabulary-float-eos": (_write_json("in.json", {"tokens": ["a", "b"], "eos": 1.7}),
                             lambda: tinylm.VocabTokenizer.from_json("in.json"),
                             [*GENERATE, "--vocab", "in.json", "--fixed-precision", "3"],
                             "vocabulary file in.json"),
    "vocabulary-boolean-eos": (_write_json("in.json", {"tokens": ["a", "b"], "eos": True}),
                               lambda: tinylm.VocabTokenizer.from_json("in.json"),
                               [*GENERATE, "--vocab", "in.json", "--fixed-precision", "3"],
                               "vocabulary file in.json"),
    "trace-schedule": (_write_json("in.json", {"traces": [{**GOOD_TRACE,
                                                           "schedule": BAD_SWITCH_POINTS}]}),
                       lambda: tinylm.GenerationTrace.from_json(
                           read_json("in.json")["traces"][0]),
                       ["eval", "--traces", "in.json", "--references", "in.json"],
                       "schedule JSON"),
    "precision-list": (lambda: None, lambda: cli._precisions("9"),
                       ["quantize", "--random", "--precisions", "9", *TINY],
                       "precision list '9'"),
}


@pytest.mark.parametrize("write, read, argv, what", OUT_OF_DOMAIN.values(),
                         ids=OUT_OF_DOMAIN.keys())
def test_an_out_of_domain_value_read_is_a_format_error_naming_its_source(
        tmp_path, monkeypatch, write, read, argv, what):
    # a constructor's ConfigError, raised while reading, is the reader's FormatError
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    write()
    with pytest.raises(FormatError, match=f"^malformed {re.escape(what)}: "):
        read()
    assert run([*argv, "--out", "out.json"]) == cli.EXIT_INPUT_ERROR
    assert not Path("out.json").exists()
    with pytest.raises(InputError):
        read_json(tmp_path / "missing.json")


def test_perf_models_the_weight_file_group_size(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["quantize", "--random", "--precisions", "4,3,2", "--group-size", "8",
                *TINY, "--out", "model.pmpd"]) == 0
    assert run(["perf", "--model", "model.pmpd", "--fixed-precision", "2",
                "--prompt-len", "8", "--gen-len", "8", "--out", "perf.json"]) == 0
    footprint = read_json("perf.json")["footprint"]
    assert footprint["group_size"] == 8
    # the stored bytes of a p2 pass: two bit planes plus an f32 min and step
    # per group; the file rounds each row up to whole groups, the model does not
    tensors = tinylm.ModelVariants.load("model.pmpd").tensors.values()
    stored = sum(t.rows * t.cols * 2 / 8 + 8 * t.mins.size for t in tensors)
    modeled = perf.ModelFootprint.from_json(footprint).weight_bytes(2)
    assert modeled == pytest.approx(stored, rel=0.01)


def test_perf_with_malformed_schedule_json_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("sched.json").write_text('{"precisions": [3, 2], "prefill": ')
    code = run(["perf", "--preset", "vicuna-7b", "--hw-preset", "npu-16k",
                "--schedule", "sched.json", "--prompt-len", "8", "--gen-len", "8",
                "--out", "perf.json"])
    assert code == cli.EXIT_INPUT_ERROR
    assert not Path("perf.json").exists()


def test_perf_requires_exactly_one_footprint_source(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["perf", "--prompt-len", "8", "--gen-len", "8",
                "--fixed-precision", "3", "--out", "p.json"])
    assert code == cli.EXIT_INPUT_ERROR


def test_full_pipeline_emits_all_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    steps = [
        ["calibrate-phase", "--model", "model.pmpd", "--limit", "3",
         "--q-ref", "1.0", "--tolerance", "1.0", "--max-new", "8", "--seed", "7",
         "--out", "calib.json"],
        ["solve-static", "--model", "model.pmpd", "--limit", "3",
         "--precisions", "3,2", "--prefill", "4", "--q-ref", "0.0",
         "--tolerance", "0.0", "--grid-n", "5", "--ol", "8", "--seed", "7",
         "--out", "schedule.json"],
        ["gen-labels", "--model", "model.pmpd", "--limit", "3", "--grid-n", "5",
         "--ol", "8", "--high", "3", "--low", "2", "--seed", "7",
         "--out", "labels.jsonl"],
        ["train-scheduler", "--labels", "labels.jsonl", "--hidden", "8",
         "--epochs", "3", "--seed", "7", "--out", "net.json"],
        ["generate", "--model", "model.pmpd", "--limit", "3",
         "--schedule", "schedule.json", "--max-new", "8", "--seed", "7",
         "--out", "traces.json"],
        ["generate", "--model", "model.pmpd", "--limit", "3",
         "--fixed-precision", "4", "--max-new", "8", "--seed", "7",
         "--out", "refs.json"],
        ["eval", "--traces", "traces.json", "--references", "refs.json",
         "--seed", "7", "--out", "eval.json"],
        ["perf", "--model", "model.pmpd", "--schedule", "schedule.json",
         "--prompt-len", "16", "--gen-len", "8", "--seed", "7",
         "--out", "perf.json"],
    ]
    for argv in steps:
        assert run(argv) == 0, argv[0]
    for name in ("calib.json", "schedule.json", "labels.jsonl", "net.json",
                 "traces.json", "eval.json", "perf.json"):
        assert Path(name).exists(), name
    # every JSON artifact embeds a provenance hash
    for name in ("calib.json", "schedule.json", "net.json", "traces.json",
                 "eval.json", "perf.json"):
        assert "config_hash" in read_json(name), name


def test_rerun_is_byte_identical(tmp_path, monkeypatch):
    results = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        quantize("model.pmpd")
        assert run(["generate", "--model", "model.pmpd", "--limit", "2",
                    "--fixed-precision", "3", "--max-new", "8", "--seed", "7",
                    "--out", "traces.json"]) == 0
        results.append((Path("model.pmpd").read_bytes(),
                        Path("traces.json").read_bytes()))
    assert results[0] == results[1]


def test_bundled_corpus_loads():
    lines = cli.load_prompt_lines(None)
    assert len(lines) >= 20
    assert all(lines)
