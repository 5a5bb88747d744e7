"""Two-stage enhancement pipeline and latency auditing.

The streaming topology is: analysis -> stage-1 estimator -> (optional)
frame-online MCWF -> (optional) stage-2 estimator -> dual-window synthesis.
Everything operates frame by frame in the complex STFT domain, so the
beamformer adds no algorithmic latency; the only look-ahead in the whole
chain is the output window span minus the predicted hops, and that number
is what :func:`audit_latency` measures empirically against
:func:`dualwin.framing.algorithmic_latency`.

Future-frame prediction applies to the last estimator stage only;
intermediate stages always work on the current frame.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .beamformer import DEFAULT_LOADING, MODES, OnlineMcwf, apply_filter
from .estimators import EstimatorInput, EstimatorKind, make_estimator
from .framing import (
    AnalysisStream,
    FrameParams,
    SpectrumFrame,
    SynthesisStream,
    algorithmic_latency,
    analyze,
    build_windows,
    synthesize_frame,
)
from .metrics import MetricReport, compute_metrics
from .windows import TUKEY, WindowKind


class ConfigError(ValueError):
    """A pipeline configuration is internally inconsistent."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run one enhancement stream."""

    params: FrameParams = FrameParams()
    window: WindowKind = TUKEY
    stage1: EstimatorKind = EstimatorKind("passthrough")
    beamformer: str | None = None  # None, "direct", or "woodbury"
    stage2: EstimatorKind | None = None
    ref_mic: int = 0
    loading: float = DEFAULT_LOADING
    update_stride: int = 1
    forgetting: float = 1.0

    def __post_init__(self):
        if self.beamformer is not None and self.beamformer not in MODES:
            raise ConfigError(
                f"beamformer must be one of {MODES} or None, got {self.beamformer!r}"
            )
        if self.ref_mic < 0:
            raise ConfigError(f"ref_mic must be >= 0, got {self.ref_mic}")
        if self.params.frames_ahead > 0 and self.stage2 is None and self.beamformer is not None:
            raise ConfigError(
                "frames_ahead > 0 needs an estimator as the final stage; a "
                "beamformer-terminated chain cannot predict ahead"
            )

    def validate_channels(self, channels: int):
        if self.ref_mic >= channels:
            raise ConfigError(
                f"ref_mic {self.ref_mic} out of range for {channels} channels"
            )
        if self.beamformer is not None and channels == 1:
            warnings.warn(
                "beamforming a single channel degenerates to a single-channel "
                "Wiener filter",
                stacklevel=3,
            )

    @property
    def needs_reference(self) -> bool:
        return self.stage1.is_oracle or (self.stage2 is not None and self.stage2.is_oracle)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    """Outcome of one pipeline run.

    Serializes with stable key order; the two wall-clock fields are the
    only run-to-run variation for identical inputs.
    """

    config: dict
    algorithmic_latency_ms: float
    frames: dict
    metrics: MetricReport | None
    frame_time_ms_mean: float
    frame_time_ms_max: float

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.metrics is not None:
            d["metrics"] = self.metrics.to_dict()
        return d

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_pipeline(
    config: PipelineConfig,
    mixture: np.ndarray,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Stream a mixture through the configured chain.

    Arguments:
        config: pipeline configuration
        mixture: (channels, n) or (n,) time-domain mixture
        reference: (n,) clean direct-path reference; required when any
            oracle estimator is configured, and enables metric computation
    Return:
        (enhanced, report): (n,) enhanced signal (same length as the
        input) and the run report
    """
    mixture = np.asarray(mixture, dtype=np.float64)
    if mixture.ndim == 1:
        mixture = mixture[np.newaxis, :]
    channels, n_samples = mixture.shape
    config.validate_channels(channels)
    params = config.params
    k = params.frames_ahead
    if config.needs_reference and reference is None:
        raise ConfigError("an oracle estimator is configured but no reference was given")
    if reference is not None:
        reference = np.asarray(reference, dtype=np.float64).reshape(-1)
        if len(reference) != n_samples:
            raise ConfigError(
                f"reference length {len(reference)} does not match mixture {n_samples}"
            )

    g, l = build_windows(config.window, params)
    hop = params.hop
    input_frames = n_samples // hop
    # output sample n - 1 needs oracle rows up to ceil((n + ows) / hop) - 2 only,
    # so ows trailing zeros give the tables every row that reaches the output
    tail = np.zeros(params.ows)
    ref_frames = None
    mix_ref_frames = None
    if reference is not None:
        ref_frames = analyze(np.concatenate([reference, tail]), g, params)
    wants_mask = any(
        kind is not None and kind.kind == "oracle_mag_mask"
        for kind in (config.stage1, config.stage2)
    )
    if wants_mask:
        mix_ref_frames = analyze(np.concatenate([mixture[config.ref_mic], tail]), g, params)

    stage1_is_last = config.stage2 is None and config.beamformer is None
    bound = dict(
        channels=channels,
        reference_frames=ref_frames,
        mixture_ref_frames=mix_ref_frames,
        expected_frames=input_frames,
    )
    est1 = make_estimator(
        config.stage1, params, frames_ahead=k if stage1_is_last else 0, stage=1, **bound
    )
    est2 = None
    if config.stage2 is not None:
        est2 = make_estimator(config.stage2, params, frames_ahead=k, stage=2, **bound)
    bf = None
    if config.beamformer is not None:
        bf = OnlineMcwf(
            channels,
            params.n_bins,
            mode=config.beamformer,
            loading=config.loading,
            update_stride=config.update_stride,
            forgetting=config.forgetting,
            ref_mic=config.ref_mic,
        )

    astream = AnalysisStream(g, params, channels)
    sstream = SynthesisStream(params)
    out_parts: list[np.ndarray] = []
    frame_times: list[float] = []
    counts = {"analysis": 0, "stage1": 0, "beamformer": 0, "stage2": 0, "synthesis": 0}
    try:
        # one hop per push, as a live caller feeds it: the mixture, then
        # zeros, until every input frame has run and the output is complete
        for t in range(params.frames_to_release(n_samples)):
            t0 = time.perf_counter()
            block = mixture[:, t * hop : (t + 1) * hop]
            if block.shape[1] < hop:
                block = np.concatenate([block, np.zeros((channels, hop - block.shape[1]))], axis=1)
            (frame,) = astream.push(block)
            s1 = est1.estimate(EstimatorInput(frame.bins), t)
            counts["stage1"] += 1
            bf_out = None
            if bf is not None:
                w = bf.update(frame.bins, s1)
                bf_out = apply_filter(w, frame.bins)
                counts["beamformer"] += 1
            if est2 is not None:
                final = est2.estimate(EstimatorInput(frame.bins, s1, bf_out), t)
                counts["stage2"] += 1
            else:
                final = bf_out if bf is not None else s1
            chunk = synthesize_frame(SpectrumFrame(final, t), l, params)
            out_parts.append(sstream.push(chunk))
            counts["synthesis"] += 1
            frame_times.append(time.perf_counter() - t0)
    finally:
        est1.close()
        if est2 is not None:
            est2.close()
    out = np.concatenate(out_parts)[:n_samples] if out_parts else np.zeros(0)

    counts["analysis"] = astream.frames_emitted
    metrics = compute_metrics(out, reference) if reference is not None else None
    times_ms = 1000.0 * np.asarray(frame_times) if frame_times else np.zeros(1)
    report = RunReport(
        config=config.to_dict(),
        algorithmic_latency_ms=algorithmic_latency(params),
        frames=dict(counts),
        metrics=metrics,
        frame_time_ms_mean=float(np.mean(times_ms)),
        frame_time_ms_max=float(np.max(times_ms)),
    )
    return out, report


# ---------------------------------------------------------------------------
# latency auditing


@dataclass
class LatencyCheck:
    """Result of the impulse/causality audit for one prediction horizon."""

    frames_ahead: int
    expected_ms: float
    measured_ms: float
    timing_ok: bool
    impulse_ok: bool
    causality_ok: bool

    @property
    def ok(self) -> bool:
        return self.timing_ok and self.impulse_ok and self.causality_ok


def _identity_chain(window: WindowKind, params: FrameParams):
    """Sample-in/samples-out closure over analysis -> synthesis of channel 0."""
    g, l = build_windows(window, params)
    astream = AnalysisStream(g, params, 1)
    sstream = SynthesisStream(params)

    def push(samples: np.ndarray) -> np.ndarray:
        parts = [
            sstream.push(synthesize_frame(frame.channel(0), l, params))
            for frame in astream.push(samples)
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    return push


def audit_latency(
    frames_ahead: int,
    params: FrameParams | None = None,
    window: WindowKind = TUKEY,
) -> LatencyCheck:
    """Empirically verify the latency arithmetic for one horizon.

    Three checks against an identity estimator chain:

    * timing: feeding samples one at a time, the output sample at a hop
      boundary n is released after ingesting exactly
      ``n + ows - frames_ahead * hop`` samples;
    * impulse: a unit impulse at input sample n is reconstructed at output
      sample ``n + frames_ahead * hop`` (the identity chain cannot truly
      predict, so its content lands ``frames_ahead`` hops late, which is
      exactly the shift a predictive estimator would cancel);
    * causality: zeroing every input sample after a cut point never
      changes anything already released at the cut, bit-exactly.
    """
    base = params or FrameParams()
    params = FrameParams(
        sample_rate=base.sample_rate,
        iws=base.iws,
        ows=base.ows,
        hop=base.hop,
        n_dft=base.n_dft,
        frames_ahead=frames_ahead,
    )
    b = params.hop
    expected_samples = params.ows - frames_ahead * b
    rng = np.random.default_rng(7)
    total = 64 * b

    # timing: first ingest count at which output index n is released
    probes = {16 * b: None, 24 * b: None}
    push = _identity_chain(window, params)
    x = rng.standard_normal(total)
    released = 0
    for i in range(total):
        released += len(push(x[i : i + 1]))
        for n in probes:
            if probes[n] is None and released > n:
                probes[n] = i + 1
    deltas = {n: got - n for n, got in probes.items() if got is not None}
    timing_ok = len(deltas) == len(probes) and all(
        d == expected_samples for d in deltas.values()
    )
    measured = max(deltas.values()) if deltas else float("nan")

    # impulse content lands frames_ahead hops late through an identity chain
    impulse_ok = True
    for n in (16 * b, 16 * b + b // 2):
        x_imp = np.zeros(total)
        x_imp[n] = 1.0
        push = _identity_chain(window, params)
        out = np.concatenate([push(x_imp), push(np.zeros(2 * params.ows))])
        shifted = n + frames_ahead * b
        expected_out = np.zeros(len(out))
        if shifted < len(out):
            expected_out[shifted] = 1.0
        start = frames_ahead * b  # samples with missing past contributions
        impulse_ok &= bool(
            np.max(np.abs(out[start:] - expected_out[start:])) < 1e-9
        )

    # causality: everything released by the time the cut point was ingested
    # must be unchanged when the future is zeroed, even for one-shot runs
    cut = 20 * b + 5
    released_at_cut = max(
        0, (cut // b + frames_ahead + 1 - params.ows // b) * b
    )
    x2 = x.copy()
    x2[cut:] = 0.0
    outs = []
    for signal in (x, x2):
        push = _identity_chain(window, params)
        outs.append(np.concatenate([push(signal), push(np.zeros(2 * params.ows))]))
    causality_ok = released_at_cut > 0 and bool(
        np.array_equal(outs[0][:released_at_cut], outs[1][:released_at_cut])
    )

    return LatencyCheck(
        frames_ahead=frames_ahead,
        expected_ms=algorithmic_latency(params),
        measured_ms=params.ms(measured) if deltas else float("nan"),
        timing_ok=timing_ok,
        impulse_ok=impulse_ok,
        causality_ok=causality_ok,
    )


def audit_all(
    horizons=(0, 1, 2, 3),
    params: FrameParams | None = None,
    window: WindowKind = TUKEY,
) -> list[LatencyCheck]:
    return [audit_latency(k, params, window) for k in horizons]
