import json
import struct
from pathlib import Path

import pytest

from pmpd import cli, tinylm
from pmpd.errors import FormatError, InputError
from pmpd.util import read_json

TINY = ["--layers", "2", "--heads", "2", "--d-model", "64", "--d-ff", "128",
        "--max-context", "128"]


def run(argv):
    return cli.main(argv)


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
    for f, s in zip(fixed, sched):
        assert f["output_tokens"] == s["output_tokens"]
        assert f["logits_hashes"] == s["logits_hashes"]


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


def _rewrite_metadata(path, mutate) -> None:
    data = Path(path).read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 8)
    meta = json.loads(data[12 : 12 + meta_len])
    mutate(meta)
    blob = json.dumps(meta).encode("utf-8")
    Path(path).write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                           + data[12 + meta_len :])


BAD_METADATA = {
    "negative-rows": lambda meta: meta["tensors"][0].update(rows=-1),
    "negative-cols": lambda meta: meta["tensors"][1].update(cols=-64),
    "norms-not-a-dict": lambda meta: meta.update(norms=[1.0]),
    "non-numeric-norm": lambda meta: meta["norms"].update(final_norm=["x"] * 64),
    "non-integer-seed": lambda meta: meta["init"].update(seed="seven"),
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


def test_conflicting_scheduler_flags_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quantize("model.pmpd")
    code = run(["generate", "--model", "model.pmpd", "--limit", "1",
                "--fixed-precision", "3", "--learned", "x.json", "--out", "t.json"])
    assert code == cli.EXIT_INPUT_ERROR


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
    assert Path("sweep.csv").read_text().startswith("scheme,")


def test_read_json_errors_are_typed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(FormatError):
        read_json(bad)
    with pytest.raises(InputError):
        read_json(tmp_path / "missing.json")


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
