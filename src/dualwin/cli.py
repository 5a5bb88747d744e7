"""Command-line surface: simulate, enhance, windows, latency-check.

Exit codes: 0 on success, 1 on validation errors (bad flags, config schema
violations, malformed inputs), 2 on runtime failures, running out of memory
among them.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

from .beamformer import BeamformerStateError
from .config import load_job
from .estimators import ExternalProtocolError
from .framing import FrameParams, build_windows
from .pipeline import ConfigError, PipelineConfig, audit_latency, run_pipeline
from .simulate import make_scene, scene_samples
from .wavio import WavError, check_format, check_writable, open_fresh, read_wav, write_wav
from .windows import WINDOW_NAMES, WindowKind, peak_gain, verify_cola

# make_scene's keywords and defaults: each simulate flag stores into one and takes its default
_SCENE = {name: p.default for name, p in inspect.signature(make_scene).parameters.items()}


class _Parser(argparse.ArgumentParser):
    # validation problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache  # built once per process: in-process callers run many jobs
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualwin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("windows", help="emit a window pair and its COLA residual")
    p.add_argument("--kind", choices=WINDOW_NAMES, default=PipelineConfig.window.name)
    p.add_argument("--iws", type=int, default=FrameParams.iws, help="analysis window, samples")
    p.add_argument("--ows", type=int, default=FrameParams.ows, help="output window, samples")
    p.add_argument("--hop", type=int, default=FrameParams.hop, help="hop, samples")
    p.add_argument("--n-dft", type=int, default=FrameParams.n_dft)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("simulate", help="write a synthetic scene: WAVs + manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)  # make_scene has no default
    p.add_argument("--channels", type=int, default=_SCENE["channels"])
    p.add_argument("--diameter", type=_finite_float, default=_SCENE["diameter"], help="array diameter, m")
    p.add_argument("--duration", dest="duration_s", type=_finite_float, default=_SCENE["duration_s"], help="seconds")
    p.add_argument("--snr-db", type=_finite_float, default=_SCENE["snr_db"])
    p.add_argument("--noises", dest="n_noises", type=int, default=_SCENE["n_noises"])
    p.add_argument("--sample-rate", type=int, default=_SCENE["sample_rate"])
    p.add_argument("--ref-mic", type=int, default=_SCENE["ref_mic"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enhance", help="run the enhancement pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("latency-check", help="impulse/causality audit per horizon")
    p.add_argument("--frames-ahead", type=int, nargs="+", default=[0, 1, 2, 3])
    p.set_defaults(func=cmd_latency_check)
    return parser


def _write_text(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_windows(args) -> int:
    params = FrameParams(iws=args.iws, ows=args.ows, hop=args.hop, n_dft=args.n_dft)
    g, l = build_windows(WindowKind(args.kind), params)
    residual = verify_cola(g, l, params)
    if args.format == "json":
        text = json.dumps(
            {
                "kind": args.kind,
                "iws": args.iws,
                "ows": args.ows,
                "hop": args.hop,
                "n_dft": args.n_dft,
                "cola_residual": residual,
                "synthesis_peak_gain": peak_gain(l),
                "analysis": g.tolist(),
                "synthesis": l.tolist(),
            },
            indent=2,
            sort_keys=True,
        )
        _write_text(text + "\n", args.out)
    else:
        offset = args.iws - args.ows  # synthesis window spans the last ows samples
        lines = [f"# kind={args.kind} cola_residual={residual:.3e}", "index,analysis,synthesis"]
        for i, value in enumerate(g):
            synth = repr(float(l[i - offset])) if i >= offset else ""
            lines.append(f"{i},{float(value)!r},{synth}")
        _write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    n = scene_samples(args.duration_s, args.sample_rate)
    check_format(args.channels, args.sample_rate, n=n)  # before a scene no WAV can hold is simulated
    scene = make_scene(**{name: getattr(args, name) for name in _SCENE})
    for samples in (scene.mixture, scene.target_direct):  # before anything is written
        check_writable(samples, scene.sample_rate)
    os.makedirs(args.out_dir, exist_ok=True)
    mixture_path = os.path.join(args.out_dir, "mixture.wav")
    reference_path = os.path.join(args.out_dir, "reference.wav")
    write_wav(mixture_path, scene.mixture, scene.sample_rate)
    write_wav(reference_path, scene.target_direct, scene.sample_rate)
    manifest = {
        "seed": scene.seed,
        "sample_rate": scene.sample_rate,
        "channels": args.channels,
        "diameter_m": args.diameter,
        "snr_db": scene.snr_db,
        "ref_mic": scene.ref_mic,
        "noise_scale": scene.noise_scale,
        "sources": [
            {"role": s.role, "azimuth_rad": s.azimuth, "level_db": s.level_db}
            for s in scene.sources
        ],
        "files": {"mixture": "mixture.wav", "reference": "reference.wav"},
    }
    manifest_path = os.path.join(args.out_dir, "scene.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {mixture_path}, {reference_path}, {manifest_path}")
    return 0


def cmd_enhance(args) -> int:
    job = load_job(args.config)
    mixture, fs = read_wav(job.mixture_path)
    if fs != job.pipeline.params.sample_rate:
        raise ConfigError(
            f"mixture sample rate {fs} does not match configured "
            f"{job.pipeline.params.sample_rate}"
        )
    reference = None
    if job.reference_path:
        reference, ref_fs = read_wav(job.reference_path)
        if ref_fs != fs:
            raise ConfigError(f"reference sample rate {ref_fs} does not match {fs}")
    enhanced, report = run_pipeline(job.pipeline, mixture, reference)
    fresh = write_wav(job.output_path, enhanced, fs)
    payload = {  # shallow: report.config is already the dict run_pipeline built
        **vars(report),
        "metrics": None if report.metrics is None else vars(report.metrics),
        "job": {
            "mixture": job.mixture_path,
            "reference": job.reference_path,
            "output": job.output_path,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if job.report_path:
        try:
            fh, _ = open_fresh(job.report_path, "w", encoding="utf-8")
            with fh:
                fh.write(text)
        except BaseException:  # a run whose report failed leaves no finished-looking WAV
            if fresh:  # never one written through a link, or another's file
                os.remove(job.output_path)
            raise
    else:
        sys.stdout.write(text)
    return 0


def cmd_latency_check(args) -> int:
    all_ok = True
    for r in map(audit_latency, args.frames_ahead):
        verdict = "PASS" if r.ok else "FAIL"
        all_ok &= r.ok
        print(
            f"frames_ahead={r.frames_ahead} expected={r.expected_ms:g} ms "
            f"measured={r.measured_ms:g} ms timing={'ok' if r.timing_ok else 'BAD'} "
            f"impulse={'ok' if r.impulse_ok else 'BAD'} "
            f"causality={'ok' if r.causality_ok else 'BAD'} {verdict}"
        )
    return 0 if all_ok else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, WavError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ExternalProtocolError, BeamformerStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size; Python's own has none
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
