"""The benchmark's one adapter to dualwin: every call into the package is here.

The live workloads need a chain that takes one hop at a time, and dualwin
offers only the whole-signal ``run_pipeline`` today. ``LiveStream``
therefore composes the same per-frame chain from the package's public
parts, mirroring ``run_pipeline`` step for step, and the correctness gate
holds it to ``run_pipeline``'s output bit for bit. When a streaming
``Session`` API lands, this file is the one to switch over to it.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of dualwin, so the benchmark always measures the
sources next to it.
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from tracing import Target

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "external_child.py"

if not (SRC / "dualwin" / "__init__.py").is_file():
    raise ImportError(f"dualwin sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import dualwin  # noqa: E402
from dualwin import (  # noqa: E402
    beamformer,
    cli,
    config,
    estimators,
    framing,
    metrics,
    pipeline,
    simulate,
    wavio,
)

if Path(dualwin.__file__).resolve().parent != SRC / "dualwin":
    raise ImportError(f"imported dualwin from {dualwin.__file__}, not from {SRC}")

PARAMS = framing.FrameParams()  # 16/4/2 ms at 16 kHz, k = 0
HOP = PARAMS.hop
HOP_S = PARAMS.hop / PARAMS.sample_rate
SAMPLE_RATE = PARAMS.sample_rate
CHANNELS = 6
# The external child returns the mixture, whose SI-SDR is about the scene
# SNR; 5 dB keeps every workload's SI-SDR clear of 0 dB.
SNR_DB = 5.0
BATCH_AUDIO_S = 1.0
PROBE_AUDIO_S = 0.1
LIVE_STREAMS = {"live_mcwf6": 3, "live_external6": 2}


def scene_seed(seed: int, index: int) -> int:
    """Distinct ``make_scene`` seed for input ``index`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def live_config(workload: str, stats_path: Path) -> pipeline.PipelineConfig:
    """Chain of a live workload; the external child writes its counters to ``stats_path``."""
    if workload == "live_mcwf6":
        return pipeline.PipelineConfig(
            stage1=estimators.EstimatorKind("oracle_mag_mask"),
            beamformer="woodbury",
            stage2=estimators.EstimatorKind("passthrough", source="beamformer"),
        )
    command = shlex.join([sys.executable, str(CHILD), "--stats", str(stats_path)])
    return pipeline.PipelineConfig(stage1=estimators.EstimatorKind("external", command=command))


def make_live_inputs(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Write one scene per stream as .npy files; returns the manifest entries."""
    streams = []
    for s in range(LIVE_STREAMS[workload]):
        scene = simulate.make_scene(
            seed=scene_seed(seed, s), channels=CHANNELS, duration_s=seconds, snr_db=SNR_DB
        )
        n = (scene.mixture.shape[1] // HOP) * HOP
        mixture, reference = work / f"mixture-{s}.npy", work / f"reference-{s}.npy"
        np.save(mixture, scene.mixture[:, :n])
        np.save(reference, scene.target_direct[:n])
        streams.append({"mixture": str(mixture), "reference": str(reference)})
    return {"streams": streams}


def _job_config(work: Path, name: str, mixture: Path, reference: Path) -> Path:
    path = work / f"{name}.conf"
    path.write_text(
        "\n".join(
            [
                f"mixture = {mixture}",
                f"reference = {reference}",
                f"output = {work / (name + '-enhanced.wav')}",
                f"report = {work / (name + '-report.json')}",
                "stage1 = oracle_mag_mask",
                "beamformer = off",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return path


def make_batch_inputs(seed: int, work: Path) -> dict:
    """Write the job's WAVs and configs, plus a short probe job for set-up."""
    scene = simulate.make_scene(
        seed=scene_seed(seed, 0), channels=CHANNELS, duration_s=BATCH_AUDIO_S, snr_db=SNR_DB
    )
    probe_n = int(PROBE_AUDIO_S * SAMPLE_RATE)
    jobs = {}
    for name, n in (("job", scene.mixture.shape[1]), ("probe", probe_n)):
        mixture, reference = work / f"{name}-mixture.wav", work / f"{name}-reference.wav"
        wavio.write_wav(mixture, scene.mixture[:, :n], SAMPLE_RATE)
        wavio.write_wav(reference, scene.target_direct[:n], SAMPLE_RATE)
        jobs[name] = {
            "config": str(_job_config(work, name, mixture, reference)),
            "output": str(work / f"{name}-enhanced.wav"),
            "samples": n,
        }
    return jobs


def run_job(config_path: str) -> int:
    """One in-process ``dualwin enhance`` job; returns its exit code."""
    return cli.main(["enhance", "--config", config_path])


class LiveStream:
    """One live stream: the chain of ``run_pipeline``, one hop at a time.

    Construction does what ``run_pipeline`` does before its first frame
    (window design, oracle pre-analysis, estimator binding, MCWF state);
    ``push`` runs one hop through analysis, the estimators, the MCWF and
    synthesis and returns the released samples; ``finish`` flushes the
    tail exactly as ``run_pipeline`` does.
    """

    def __init__(self, cfg: pipeline.PipelineConfig, mixture: np.ndarray, reference: np.ndarray):
        channels, n_samples = mixture.shape
        params = cfg.params
        self.cfg = cfg
        self.n_samples = n_samples
        self.input_frames = n_samples // params.hop
        g, self.l = framing.build_windows(cfg.window, params)
        k = params.frames_ahead
        # same padding as run_pipeline, so the oracles see the same frames
        pad = (params.ows // params.hop + 2 * k + 4) * params.hop + params.hop
        ref_frames = mix_ref_frames = None
        if cfg.needs_reference:
            ref_frames = framing.analyze(np.concatenate([reference, np.zeros(pad)]), g, params)
        if any(kind is not None and kind.kind == "oracle_mag_mask" for kind in (cfg.stage1, cfg.stage2)):
            mix_ref_frames = framing.analyze(
                np.concatenate([mixture[cfg.ref_mic], np.zeros(pad)]), g, params
            )
        stage1_is_last = cfg.stage2 is None and cfg.beamformer is None
        common = dict(
            channels=channels,
            reference_frames=ref_frames,
            mixture_ref_frames=mix_ref_frames,
            expected_frames=self.input_frames,
        )
        self.est1 = estimators.make_estimator(
            cfg.stage1, params, frames_ahead=k if stage1_is_last else 0, stage=1, **common
        )
        self.est2 = None
        self.bf = None
        try:
            if cfg.stage2 is not None:
                self.est2 = estimators.make_estimator(
                    cfg.stage2, params, frames_ahead=k, stage=2, **common
                )
            if cfg.beamformer is not None:
                self.bf = beamformer.OnlineMcwf(
                    channels,
                    params.n_bins,
                    mode=cfg.beamformer,
                    loading=cfg.loading,
                    update_stride=cfg.update_stride,
                    forgetting=cfg.forgetting,
                    ref_mic=cfg.ref_mic,
                )
        except BaseException:
            self.close()
            raise
        self.astream = framing.AnalysisStream(g, params, channels)
        self.sstream = framing.SynthesisStream(params)

    def push(self, hop: np.ndarray) -> np.ndarray:
        """Process one hop of input, shape (channels, hop); returns released samples."""
        params = self.cfg.params
        parts = []
        for frame in self.astream.push(hop):
            t = frame.frame_index
            s1 = self.est1.estimate(estimators.EstimatorInput(frame.bins), t)
            bf_out = None
            if self.bf is not None:
                w = self.bf.update(frame.bins, s1)
                bf_out = beamformer.apply_filter(w, frame.bins)
            if self.est2 is not None:
                final = self.est2.estimate(estimators.EstimatorInput(frame.bins, s1, bf_out), t)
            else:
                final = bf_out if self.bf is not None else s1
            chunk = framing.synthesize_frame(framing.SpectrumFrame(final, t), self.l, params)
            parts.append(self.sstream.push(chunk))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0)

    def finish(self, released: list[np.ndarray]) -> np.ndarray:
        """Flush like ``run_pipeline`` and return the whole output signal."""
        params = self.cfg.params
        zero_hop = np.zeros((self.astream.channels, params.hop))
        flush_limit = self.input_frames + params.ows // params.hop + params.frames_ahead + 8
        while self.sstream.released < self.n_samples and self.astream.frames_emitted < flush_limit:
            released.append(self.push(zero_hop))
        out = np.concatenate(released) if released else np.zeros(0)
        if len(out) < self.n_samples:
            out = np.concatenate([out, np.zeros(self.n_samples - len(out))])
        return out[: self.n_samples]

    def close(self):
        for est in (self.est1, self.est2):
            if est is not None:
                est.close()


def reference_output(cfg: pipeline.PipelineConfig, mixture: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """What ``run_pipeline`` makes of the same input: the gate's expected output."""
    return pipeline.run_pipeline(cfg, mixture, reference)[0]


def batch_expected(job_config: str) -> np.ndarray:
    """The float32 ``run_pipeline`` output a batch job must have written."""
    job = config.load_job(job_config)
    mixture, _ = wavio.read_wav(job.mixture_path)
    reference, _ = wavio.read_wav(job.reference_path)
    out = pipeline.run_pipeline(job.pipeline, mixture, reference[0])[0]
    return out.astype(np.float32)


def read_output(path: str) -> np.ndarray:
    """Samples of a job's output WAV, as float32 (the format it was written in)."""
    return wavio.read_wav(path)[0][0].astype(np.float32)


def batch_reference(job_config: str) -> np.ndarray:
    job = config.load_job(job_config)
    return wavio.read_wav(job.reference_path)[0][0]


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    return metrics.si_sdr(estimate, reference)


def read_child_stats(paths) -> dict:
    """Sum the counters the external children wrote when they exited."""
    total = {"frames": 0, "busy_ns": 0, "request_bytes": 0, "reply_bytes": 0}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            stats = json.load(fh)
        for key in total:
            total[key] += stats[key]
    return total


def external_frame_bytes() -> tuple[int, int]:
    """Bytes of one stage-1 request and one reply on the external protocol,
    each with its 4-byte length prefix."""
    return 4 + CHANNELS * PARAMS.n_bins * 8, 4 + PARAMS.n_bins * 8


def dualwin_modules() -> list:
    """Every loaded dualwin module, whose name bindings the tracer patches."""
    return [m for name, m in sorted(sys.modules.items()) if name == "dualwin" or name.startswith("dualwin.")]


def trace_targets() -> list[Target]:
    """The public functions and methods the traced run wraps, one span name each.

    Span names are ``<layer>.<function>``, the layer being the dualwin
    module; ``build_windows`` lives in ``framing`` but designs the windows,
    so it is counted under ``windows``.
    """

    def frames_out(args, kwargs, result):
        return len(result)

    def file_bytes(args, kwargs, result):
        return os.path.getsize(args[0] if args else kwargs["path"])

    def stage(args, kwargs):
        inp = args[1] if len(args) > 1 else kwargs["inp"]
        return 1 if inp.stage1 is None else 2  # only stage 2 receives a stage-1 estimate

    T = Target
    targets = [
        T(framing.AnalysisStream, "push", "framing.analysis_push", count=frames_out),
        T(framing, "analyze", "framing.analyze"),
        T(framing, "synthesize_frame", "framing.synthesize_frame"),
        T(framing.SynthesisStream, "push", "framing.synthesis_push"),
        T(framing, "build_windows", "windows.build_windows"),
        T(estimators, "make_estimator", "estimators.make_estimator"),
        T(beamformer.OnlineMcwf, "__init__", "beamformer.init"),
        T(beamformer.OnlineMcwf, "update", "beamformer.update"),
        T(beamformer, "apply_filter", "beamformer.apply_filter"),
        T(pipeline, "run_pipeline", "pipeline.run_pipeline"),
        T(metrics, "compute_metrics", "metrics.compute_metrics"),
        T(wavio, "read_wav", "wavio.read", count=file_bytes),
        T(wavio, "write_wav", "wavio.write", count=file_bytes),
        T(config, "load_job", "config.load_job"),
        T(cli, "main", "cli.main"),
    ]
    for cls in vars(estimators).values():
        if isinstance(cls, type) and issubclass(cls, estimators.Estimator) and "estimate" in vars(cls):
            targets.append(T(cls, "estimate", f"estimators.{cls.__name__}.estimate", tag=stage))
    return targets
