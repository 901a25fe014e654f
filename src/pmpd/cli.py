"""Command-line pipeline: quantize, calibrate, solve, train, generate, score.

Every subcommand reads explicit flags, honors --seed, writes one artifact
and exits 0; bad inputs exit 2, broken internal contracts exit 3. Each flag
is declared once in :func:`build_parser`, those shared by several commands
in a parent parser, and each choice of exactly one flag is a mutually
exclusive group; a conflict or a missing choice is an argparse usage error,
which prints the usage line and exits 2 before any file is read. Artifacts
are canonical JSON (sorted keys, no timestamps) so a rerun with the same
seed and inputs is byte-identical, and each embeds a hash of the resolved
configuration for provenance.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import learnsched, metrics, perf, quant, schedule, tinylm
from .errors import ContractViolation, InputError, PmpdError
from .util import config_hash, parsing, read_json, read_text, write_json

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


def _precisions(text: str) -> quant.PrecisionSet:
    with parsing(f"precision list {text!r}"):
        return quant.PrecisionSet(tuple(int(x) for x in text.split(",")))


def _encode_prompts(tok, lines: list[str], limit: int | None) -> list[list[int]]:
    prompts = [tok.encode(ln) for ln in lines]
    if limit is not None:
        if limit < 0:
            raise InputError(f"--limit must be >= 0, got {limit}")
        prompts = prompts[:limit]
    if not prompts:
        raise InputError(f"--limit {limit} leaves no prompt to run")
    return prompts


def _load_model_and_prompts(args, lines: list[str]):
    """The ``--model``, the ``--vocab`` tokenizer and ``lines`` encoded up to ``--limit``."""
    model = tinylm.ModelVariants.load(args.model)
    tok = tinylm.VocabTokenizer.from_json(args.vocab) if args.vocab else tinylm.ByteTokenizer()
    return model, tok, _encode_prompts(tok, lines, args.limit)


_UNHASHED = ("out", "func")  # arguments that do not change a command's output


def _hashable_args(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in _UNHASHED and v is not None}


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
    model, tok, prompts = _load_model_and_prompts(args, load_prompt_lines(args.calib))
    target = schedule.QualityTarget(args.q_ref, args.tolerance)
    report = schedule.allocate_phase_precisions(
        model, prompts, target, max_new=args.max_new, eos_id=tok.eos_id)
    _emit(args, report.to_json())
    pf, pd = report.chosen
    print(f"chosen prefill={pf} decode={pd} fallback={report.fallback}")
    return 0


def cmd_solve_static(args) -> int:
    model, tok, prompts = _load_model_and_prompts(args, load_prompt_lines(args.valset))
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
    model, tok, prompts = _load_model_and_prompts(args, load_prompt_lines(args.seeds))
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
    examples, fields = learnsched.load_labels(args.labels)
    if not examples:
        raise InputError(f"label file {args.labels} holds no examples")
    d_k, d_v = examples[0].k.shape[1], examples[0].v.shape[1]
    net = learnsched.SchedulerNet.init(d_k, d_v, args.hidden, seed=args.seed, **fields)
    result = learnsched.train(net, examples, learnsched.TrainConfig(
        lr=args.lr, epochs=args.epochs, batch=args.batch, seed=args.seed))
    payload = result.net.to_json()
    payload["training"] = {"losses": result.losses, "final_loss": result.final_loss,
                           "final_accuracy": result.final_accuracy}
    _emit(args, payload)
    print(f"final loss {result.final_loss:.4f}, accuracy {result.final_accuracy:.3f}")
    return 0


def _scheduler_from_args(args):
    if args.schedule is not None:
        if args.prefill is not None:
            raise InputError("--prefill applies to --learned and --fixed-precision; "
                             "a --schedule file sets its own prefill")
        sched = schedule.PrecisionSchedule.from_json(read_json(args.schedule))
        return schedule.StaticScheduler(sched)
    if args.learned is not None:
        net = learnsched.SchedulerNet.from_json(read_json(args.learned))
        return learnsched.LearnedScheduler(net, args.prefill)
    return schedule.FixedScheduler(args.fixed_precision, p_prefill=args.prefill)


def cmd_generate(args) -> int:
    lines = [args.prompt] if args.prompt is not None else load_prompt_lines(args.prompts)
    model, tok, prompts = _load_model_and_prompts(args, lines)
    scheduler = _scheduler_from_args(args)
    cfg = tinylm.SamplerConfig(temperature=args.temperature, seed=args.seed)
    # one scheduler, so each row samples from its own stream, temperature or not
    rows, _ = tinylm.decode_schedules(model, prompts, [scheduler], cfg, tok.eos_id,
                                      args.max_new)
    traces = [{**trace.to_json(), "prompt": line, "text": tok.decode(trace.output_tokens)}
              for line, (trace,) in zip(lines, rows)]
    _emit(args, {"traces": traces})
    return 0


def _footprint_from_args(args) -> perf.ModelFootprint:
    if args.model is not None:
        model = tinylm.ModelVariants.load(args.model)
        return perf.ModelFootprint.from_model_config(model.config, model.group_size)
    if args.footprint is not None:
        return perf.ModelFootprint.from_json(read_json(args.footprint))
    return perf.FOOTPRINT_PRESETS[args.preset]


def _hardware_from_args(args) -> perf.HardwareConfig:
    if args.hardware is not None:
        hw = perf.HardwareConfig.from_json(read_json(args.hardware))
    else:
        hw = perf.HARDWARE_PRESETS[args.hw_preset]
    return dataclasses.replace(hw, overlap=False) if args.no_overlap else hw


def cmd_perf(args) -> int:
    fp = _footprint_from_args(args)
    hw = _hardware_from_args(args)
    if args.schedule is not None:
        sched = schedule.PrecisionSchedule.from_json(read_json(args.schedule))
    else:
        sched = schedule.PrecisionSchedule.constant(args.fixed_precision, args.gen_len)
    model = functools.partial(perf.pipeline_perf, fp, hw=hw, prompt_len=args.prompt_len,
                              gen_len=args.gen_len, include_kv=not args.no_kv_traffic)
    report = model(sched)
    payload = {"report": report.to_json(), "hardware": hw.to_json(),
               "footprint": fp.to_json()}
    if args.gpu_kernels is not None:
        table = read_json(args.gpu_kernels)
        weighted, speedup = perf.weighted_gpu_latency(table, sched, args.gen_len)
        payload["gpu"] = {"weighted_latency_us": weighted, "speedup_vs_fp16": speedup}
    _emit(args, payload)
    if args.csv is not None:
        # every row is its own scheme's report, so every field means the same
        constant = schedule.PrecisionSchedule.constant
        reports = {"pmpd": report,
                   "uniform-high": model(constant(sched.precisions.p_max, sched.horizon)),
                   "fp16": model(constant(perf.FP16, sched.horizon))}
        rows = ["scheme,avg_bitwidth,total_s,tokens_per_s,speedup_vs_fp16"]
        rows += [f"{name},{r.avg_bitwidth},{r.total_s},{r.tokens_per_s},{r.speedup_vs_fp16}"
                 for name, r in reports.items()]
        Path(args.csv).write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")
    print(f"speedup vs fp16: {report.speedup_vs_fp16:.2f}x "
          f"at avg {report.avg_bitwidth:.2f} bits")
    return 0


def _load_traces(path) -> list[tinylm.GenerationTrace]:
    obj = read_json(path)
    traces = obj.get("traces") if isinstance(obj, dict) else None
    if not isinstance(traces, list) or not traces:
        raise InputError(f"{path} holds no non-empty \"traces\" list")
    return [tinylm.GenerationTrace.from_json(t) for t in traces]


def cmd_eval(args) -> int:
    out_traces = _load_traces(args.traces)
    ref_traces = _load_traces(args.references)
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

    # flags shared by several commands, each declared once in a parent parser:
    # those of the commands that run the model over prompts, the quality
    # floor and the switch grid
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--model", required=True)
    runs.add_argument("--vocab")
    runs.add_argument("--limit", type=int)
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--q-ref", type=float, required=True)
    target.add_argument("--tolerance", type=float, required=True)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-n", type=int, default=5)
    grid.add_argument("--ol", type=int, required=True, help="decode horizon")

    def add(name, fn, help_, *parents):
        p = sub.add_parser(name, help=help_, parents=parents)
        p.set_defaults(func=fn)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
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

    p = add("calibrate-phase", cmd_calibrate_phase,
            "pick the smallest (prefill, decode) precision pair meeting the floor", runs, target)
    p.add_argument("--calib", help="calibration prompts (default: bundled corpus)")
    p.add_argument("--max-new", type=int, default=32)

    p = add("solve-static", cmd_solve_static, "offline grid search for the static schedule",
            runs, target, grid)
    p.add_argument("--valset", help="validation prompts (default: bundled corpus)")
    p.add_argument("--precisions", required=True, help="decode precisions, e.g. 3,2")
    p.add_argument("--prefill", type=int, required=True)

    p = add("gen-labels", cmd_gen_labels, "build the learned scheduler's training set",
            runs, grid)
    p.add_argument("--seeds", help="seed prompts (default: bundled corpus)")
    p.add_argument("--high", type=int, required=True)
    p.add_argument("--low", type=int, required=True)
    p.add_argument("--prefill", type=int)
    p.add_argument("--feature-block", type=int, default=-1)

    p = add("train-scheduler", cmd_train_scheduler, "train the learned scheduler")
    p.add_argument("--labels", required=True)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=16)

    p = add("generate", cmd_generate, "run the deployment loop over prompts", runs)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--prompts")
    g.add_argument("--prompt")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--schedule", help="static schedule JSON")
    g.add_argument("--learned", help="scheduler net JSON")
    g.add_argument("--fixed-precision", type=int)
    p.add_argument("--prefill", type=int,
                   help="prefill precision for --learned or --fixed-precision")
    p.add_argument("--temperature", type=float, help="sampling temperature > 0; omit for greedy")
    p.add_argument("--max-new", type=int, default=32)

    p = add("perf", cmd_perf, "analytical latency/throughput model for a schedule")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model")
    g.add_argument("--footprint", help="footprint JSON")
    g.add_argument("--preset", choices=sorted(perf.FOOTPRINT_PRESETS))
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--schedule")
    g.add_argument("--fixed-precision", type=int)
    p.add_argument("--hardware", help="hardware JSON")
    p.add_argument("--hw-preset", choices=sorted(perf.HARDWARE_PRESETS), default="npu-16k")
    p.add_argument("--no-overlap", action="store_true", help="also applies to --hardware")
    p.add_argument("--no-kv-traffic", action="store_true")
    p.add_argument("--prompt-len", type=int, required=True)
    p.add_argument("--gen-len", type=int, required=True)
    p.add_argument("--gpu-kernels", help="per-precision kernel latency JSON (us)")
    p.add_argument("--csv")

    p = add("eval", cmd_eval, "fidelity of traces against reference traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--references", required=True)

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
