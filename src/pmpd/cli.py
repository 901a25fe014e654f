"""Command-line pipeline: quantize, calibrate, solve, train, generate, score.

Every subcommand reads explicit flags, honors --seed, writes one artifact
and exits 0; bad inputs exit 2, broken internal contracts exit 3. Artifacts
are canonical JSON (sorted keys, no timestamps) so a rerun with the same
seed and inputs is byte-identical, and each embeds a hash of the resolved
configuration for provenance.
"""
from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import learnsched, metrics, perf, quant, schedule, tinylm
from .errors import ContractViolation, InputError, PmpdError
from .util import config_hash, read_json, read_text, write_json

EXIT_INPUT_ERROR = 2
EXIT_CONTRACT_VIOLATION = 3


def bundled_corpus_path() -> Path:
    return Path(resources.files("pmpd").joinpath("data/corpus.txt"))


def load_prompt_lines(path: str | None) -> list[str]:
    """Non-empty lines of a UTF-8 prompt file, one prompt per line; the
    bundled corpus when no path is given."""
    p = bundled_corpus_path() if path is None else Path(path)
    lines = [ln.strip() for ln in read_text(p).splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InputError(f"prompt file {p} has no non-empty lines")
    return lines


def _tokenizer(args) -> tinylm.ByteTokenizer | tinylm.VocabTokenizer:
    if getattr(args, "vocab", None):
        return tinylm.VocabTokenizer.from_json(args.vocab)
    return tinylm.ByteTokenizer()


def _precisions(text: str) -> quant.PrecisionSet:
    try:
        return quant.PrecisionSet(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad precision list {text!r}: {exc}") from exc


def _encode_prompts(tok, lines: list[str], limit: int | None) -> list[list[int]]:
    prompts = [tok.encode(ln) for ln in lines]
    if limit is not None:
        prompts = prompts[:limit]
    return prompts


def _hashable_args(args, exclude=("out",)) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in (*exclude, "func") and v is not None}


def _emit(args, payload: dict) -> None:
    payload = dict(payload)
    payload["config_hash"] = config_hash(_hashable_args(args))
    write_json(args.out, payload)
    print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_quantize(args) -> int:
    if not args.random:
        raise InputError("only --random (seeded) model synthesis is supported")
    cfg = tinylm.ModelConfig(n_layers=args.layers, n_heads=args.heads,
                             d_model=args.d_model, d_ff=args.d_ff,
                             vocab_size=args.vocab_size, max_context=args.max_context)
    precisions = _precisions(args.precisions)
    model = tinylm.ModelVariants.from_random(cfg, precisions, args.seed,
                                             group_size=args.group_size)
    model.save(args.out)
    print(f"wrote {args.out} (p_max={precisions.p_max}, group_size={args.group_size})")
    print(f"{'tensor':<22} {'shape':<14} {'max|err|':>12} {'bound':>12} {'rms err':>12}")
    for name, qt in model.tensors.items():
        w = model.full_weights[name].astype(np.float64)
        err = np.abs(w - quant.dequantize(qt, qt.p_max))
        bound = quant.max_reconstruction_error_bound(qt, qt.p_max)
        worst = float(err.max())
        margin = float((bound - err).min())
        print(f"{name:<22} {qt.rows}x{qt.cols:<9} {worst:>12.3e} "
              f"{float(bound.max()):>12.3e} {float(np.sqrt((err ** 2).mean())):>12.3e}"
              + ("  BOUND EXCEEDED" if margin < 0 else ""))
    return 0


def cmd_calibrate_phase(args) -> int:
    model = tinylm.ModelVariants.load(args.model)
    tok = _tokenizer(args)
    prompts = _encode_prompts(tok, load_prompt_lines(args.calib), args.limit)
    target = schedule.QualityTarget(args.q_ref, args.tolerance)
    report = schedule.allocate_phase_precisions(
        model, prompts, target, max_new=args.max_new, eos_id=tok.eos_id)
    _emit(args, report.to_json())
    pf, pd = report.chosen
    print(f"chosen prefill={pf} decode={pd} fallback={report.fallback}")
    return 0


def cmd_solve_static(args) -> int:
    model = tinylm.ModelVariants.load(args.model)
    tok = _tokenizer(args)
    prompts = _encode_prompts(tok, load_prompt_lines(args.valset), args.limit)
    target = schedule.QualityTarget(args.q_ref, args.tolerance)
    grid = schedule.SwitchGrid(args.grid_n, args.ol)
    precisions = _precisions(args.precisions)
    details: list = []
    best = schedule.solve_static(model, prompts, target, grid,
                                 precisions=precisions, p_prefill=args.prefill,
                                 eos_id=tok.eos_id, details_out=details)
    payload = best.to_json()
    payload["evaluations"] = details
    _emit(args, payload)
    print(f"schedule st={best.switch_points} feasible={best.feasible}")
    return 0


def cmd_gen_labels(args) -> int:
    model = tinylm.ModelVariants.load(args.model)
    tok = _tokenizer(args)
    prompts = _encode_prompts(tok, load_prompt_lines(args.seeds), args.limit)
    grid = schedule.SwitchGrid(args.grid_n, args.ol)
    examples, skipped = learnsched.generate_labels(
        model, prompts, grid, args.high, args.low,
        p_prefill=args.prefill, eos_id=tok.eos_id, seed=args.seed,
        feature_block=args.feature_block)
    learnsched.save_labels(args.out, examples, grid, args.high, args.low,
                           args.feature_block)
    print(f"wrote {args.out} ({len(examples)} examples, {skipped} skipped)")
    return 0


def cmd_train_scheduler(args) -> int:
    examples, header = learnsched.load_labels(args.labels)
    if not examples:
        raise InputError(f"label file {args.labels} holds no examples")
    grid = schedule.SwitchGrid(int(header["grid"]["n"]), int(header["grid"]["OL"]))
    d_k, d_v = examples[0].k.shape[1], examples[0].v.shape[1]
    net = learnsched.SchedulerNet.init(
        d_k, d_v, args.hidden, grid, int(header["p_high"]), int(header["p_low"]),
        seed=args.seed, feature_block=int(header.get("feature_block", -1)))
    result = learnsched.train(net, examples, learnsched.TrainConfig(
        lr=args.lr, epochs=args.epochs, batch=args.batch, seed=args.seed))
    payload = result.net.to_json()
    payload["training"] = {"losses": result.losses, "final_loss": result.final_loss,
                           "final_accuracy": result.final_accuracy}
    _emit(args, payload)
    print(f"final loss {result.final_loss:.4f}, accuracy {result.final_accuracy:.3f}")
    return 0


def _scheduler_from_args(args, model):
    chosen = [x for x in (args.schedule, args.learned, args.fixed_precision) if x is not None]
    if len(chosen) != 1:
        raise InputError("pick exactly one of --schedule/--learned/--fixed-precision")
    if args.schedule is not None:
        sched = schedule.PrecisionSchedule.from_json(read_json(args.schedule))
        return schedule.StaticScheduler(sched)
    if args.learned is not None:
        net = learnsched.SchedulerNet.from_json(read_json(args.learned))
        return learnsched.LearnedScheduler(net, args.prefill)
    return schedule.FixedScheduler(args.fixed_precision, p_prefill=args.prefill)


def cmd_generate(args) -> int:
    model = tinylm.ModelVariants.load(args.model)
    tok = _tokenizer(args)
    if args.prompt is not None:
        lines = [args.prompt]
    else:
        lines = load_prompt_lines(args.prompts)
        if args.limit is not None:
            lines = lines[: args.limit]
    scheduler = _scheduler_from_args(args, model)
    mode = "temperature" if args.temperature is not None else "greedy"
    cfg = tinylm.SamplerConfig(mode=mode, temperature=args.temperature or 1.0,
                               seed=args.seed)
    traces = []
    for line in lines:
        trace = tinylm.generate(model, tok.encode(line), scheduler, cfg,
                                tok.eos_id, args.max_new)
        obj = trace.to_json()
        obj["prompt"] = line
        obj["text"] = tok.decode(trace.output_tokens)
        traces.append(obj)
    _emit(args, {"traces": traces})
    return 0


def _footprint_from_args(args) -> perf.ModelFootprint:
    sources = [x for x in (args.model, args.footprint, args.preset) if x is not None]
    if len(sources) != 1:
        raise InputError("pick exactly one of --model/--footprint/--preset")
    if args.model is not None:
        model = tinylm.ModelVariants.load(args.model)
        return perf.ModelFootprint.from_model_config(model.config, group_size=args.group_size)
    if args.footprint is not None:
        return perf.ModelFootprint.from_json(read_json(args.footprint))
    if args.preset not in perf.FOOTPRINT_PRESETS:
        raise InputError(f"unknown preset {args.preset!r}; "
                         f"have {sorted(perf.FOOTPRINT_PRESETS)}")
    return perf.FOOTPRINT_PRESETS[args.preset]


def _hardware_from_args(args) -> perf.HardwareConfig:
    if args.hardware is not None:
        return perf.HardwareConfig.from_json(read_json(args.hardware))
    presets = {"npu-4k": perf.NPU_4K, "npu-16k": perf.NPU_16K}
    hw = presets[args.hw_preset]
    if args.no_overlap:
        hw = perf.HardwareConfig(hw.mac_units, hw.clock_hz, hw.mem_bw_bytes_per_s,
                                 overlap=False)
    return hw


def cmd_perf(args) -> int:
    fp = _footprint_from_args(args)
    hw = _hardware_from_args(args)
    if args.schedule is not None:
        sched = schedule.PrecisionSchedule.from_json(read_json(args.schedule))
    elif args.fixed_precision is not None:
        sched = schedule.PrecisionSchedule.constant(args.fixed_precision, args.gen_len)
    else:
        raise InputError("pick one of --schedule/--fixed-precision")
    report = perf.pipeline_perf(fp, sched, hw, args.prompt_len, args.gen_len,
                                include_kv=not args.no_kv_traffic)
    payload = {"report": report.to_json(), "hardware": hw.to_json(),
               "footprint": fp.to_json()}
    if args.gpu_kernels is not None:
        table = read_json(args.gpu_kernels)
        weighted, speedup = perf.weighted_gpu_latency(table, sched, args.gen_len)
        payload["gpu"] = {"weighted_latency_us": weighted, "speedup_vs_fp16": speedup}
    _emit(args, payload)
    if args.csv is not None:
        rows = ["scheme,avg_bitwidth,total_s,tokens_per_s,speedup_vs_fp16"]
        rows.append(f"pmpd,{report.avg_bitwidth},{report.total_s},"
                    f"{report.tokens_per_s},{report.speedup_vs_fp16}")
        rows.append(f"uniform-high,{sched.precisions.p_max},{report.uniform_high_total_s},"
                    f"{args.gen_len / (report.uniform_high_total_s):.6g},"
                    f"{report.uniform_high_speedup}")
        rows.append(f"fp16,16,{report.fp16_total_s},,1.0")
        Path(args.csv).write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")
    print(f"speedup vs fp16: {report.speedup_vs_fp16:.2f}x "
          f"at avg {report.avg_bitwidth:.2f} bits")
    return 0


def cmd_eval(args) -> int:
    out_traces = [tinylm.GenerationTrace.from_json(t)
                  for t in read_json(args.traces)["traces"]]
    ref_traces = [tinylm.GenerationTrace.from_json(t)
                  for t in read_json(args.references)["traces"]]
    if len(out_traces) != len(ref_traces):
        raise InputError(f"trace count mismatch: {len(out_traces)} vs {len(ref_traces)}")
    rows = []
    for i, (out, ref) in enumerate(zip(out_traces, ref_traces)):
        rows.append({"index": i, "fidelity": metrics.fidelity(out, ref),
                     "avg_bitwidth": schedule.avg_bitwidth(out),
                     "tokens": len(out.output_tokens)})
    mean_fid = sum(r["fidelity"] for r in rows) / len(rows)
    mean_bits = sum(r["avg_bitwidth"] for r in rows) / len(rows)
    _emit(args, {"per_prompt": rows, "mean_fidelity": mean_fid,
                 "mean_avg_bitwidth": mean_bits})
    print(f"mean fidelity {mean_fid:.4f} at mean {mean_bits:.2f} bits")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pmpd",
                                 description="progressive mixed-precision decoding pipeline")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("quantize", cmd_quantize, "synthesize and quantize a model into a weight file")
    p.add_argument("--random", action="store_true")
    p.add_argument("--precisions", default="4,3,2")
    p.add_argument("--group-size", type=int, default=64)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-model", type=int, default=128)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--vocab-size", type=int, default=tinylm.BYTE_VOCAB_SIZE)
    p.add_argument("--max-context", type=int, default=512)
    p.add_argument("--out", required=True)

    p = add("calibrate-phase", cmd_calibrate_phase,
            "pick the smallest (prefill, decode) precision pair meeting the floor")
    p.add_argument("--model", required=True)
    p.add_argument("--calib", help="calibration prompts (default: bundled corpus)")
    p.add_argument("--vocab")
    p.add_argument("--limit", type=int)
    p.add_argument("--q-ref", type=float, required=True)
    p.add_argument("--tolerance", type=float, required=True)
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--out", required=True)

    p = add("solve-static", cmd_solve_static, "offline grid search for the static schedule")
    p.add_argument("--model", required=True)
    p.add_argument("--valset", help="validation prompts (default: bundled corpus)")
    p.add_argument("--vocab")
    p.add_argument("--limit", type=int)
    p.add_argument("--precisions", required=True, help="decode precisions, e.g. 3,2")
    p.add_argument("--prefill", type=int, required=True)
    p.add_argument("--q-ref", type=float, required=True)
    p.add_argument("--tolerance", type=float, required=True)
    p.add_argument("--grid-n", type=int, default=5)
    p.add_argument("--ol", type=int, required=True, help="decode horizon")
    p.add_argument("--out", required=True)

    p = add("gen-labels", cmd_gen_labels, "build the learned scheduler's training set")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", help="seed prompts (default: bundled corpus)")
    p.add_argument("--vocab")
    p.add_argument("--limit", type=int)
    p.add_argument("--grid-n", type=int, default=5)
    p.add_argument("--ol", type=int, required=True)
    p.add_argument("--high", type=int, required=True)
    p.add_argument("--low", type=int, required=True)
    p.add_argument("--prefill", type=int)
    p.add_argument("--feature-block", type=int, default=-1)
    p.add_argument("--out", required=True)

    p = add("train-scheduler", cmd_train_scheduler, "train the learned scheduler")
    p.add_argument("--labels", required=True)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--out", required=True)

    p = add("generate", cmd_generate, "run the deployment loop over prompts")
    p.add_argument("--model", required=True)
    p.add_argument("--prompts")
    p.add_argument("--prompt")
    p.add_argument("--vocab")
    p.add_argument("--limit", type=int)
    p.add_argument("--schedule", help="static schedule JSON")
    p.add_argument("--learned", help="scheduler net JSON")
    p.add_argument("--fixed-precision", type=int)
    p.add_argument("--prefill", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--out", required=True)

    p = add("perf", cmd_perf, "analytical latency/throughput model for a schedule")
    p.add_argument("--model")
    p.add_argument("--footprint", help="footprint JSON")
    p.add_argument("--preset", help=f"one of {sorted(perf.FOOTPRINT_PRESETS)}")
    p.add_argument("--group-size", type=int, default=64)
    p.add_argument("--hardware", help="hardware JSON")
    p.add_argument("--hw-preset", choices=["npu-4k", "npu-16k"], default="npu-16k")
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--no-kv-traffic", action="store_true")
    p.add_argument("--schedule")
    p.add_argument("--fixed-precision", type=int)
    p.add_argument("--prompt-len", type=int, required=True)
    p.add_argument("--gen-len", type=int, required=True)
    p.add_argument("--gpu-kernels", help="per-precision kernel latency JSON (us)")
    p.add_argument("--csv")
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, "fidelity of traces against reference traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--out", required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT_VIOLATION
    except PmpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
