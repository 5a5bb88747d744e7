"""Two-stage enhancement pipeline and latency auditing.

The streaming topology is: analysis -> stage-1 estimator -> (optional)
frame-online MCWF -> (optional) stage-2 estimator -> dual-window synthesis,
one frame per hop, run by a :class:`Session`; :func:`run_pipeline` pushes
32 hops at a time. A push runs the chain stage-major over the
``framing.FrameBlock`` of its frames, through each estimator's
``estimate_block``. The live mixture is analyzed only for the MCWF, an
``external`` stage or a ``passthrough`` of the mixture; other chains only
frame the hops. The per-frame entry points, ``framing.SpectrumFrame``,
``Estimator.estimate`` and ``framing.synthesize_frame``, compose the same
chain one frame at a time; they stay as the benchmark adapter's entry until
that per-frame API is deleted (ROADMAP item 4 (c)), and tests hold the two
compositions equal bit for bit.

The chain works in the complex STFT domain, so the beamformer adds no
algorithmic latency; the only look-ahead in the whole chain is the output
window span minus the predicted hops, and :func:`audit_latency` measures
that on a Session against :func:`dualwin.framing.algorithmic_latency`.

Future-frame prediction applies to the last estimator stage only;
intermediate stages always work on the current frame.
"""

from __future__ import annotations

import time
import warnings
from contextlib import closing
from dataclasses import asdict, dataclass, replace

import numpy as np

from .beamformer import DEFAULT_LOADING, MODES, OnlineMcwf, apply_filter
from .estimators import EstimatorKind, make_estimator
from .framing import (
    AnalysisStream,
    FrameParams,
    SynthesisStream,
    algorithmic_latency,
    analyze,
    build_windows,
    synthesize_block,
)
from .metrics import MetricReport, compute_metrics
from .windows import TUKEY, WindowKind


# Hops per run_pipeline push: fewer pushes pay fewer fixed costs, but a push sizes the work buffer.
# Fastest-10 median ms of a 1 s 6-mic enhance job on 2 vCPUs, two sweeps: 1 hop 25.9/29.3,
# 8 hops 14.0/17.9, 16 13.2/16.5, 32 13.6/15.9, 64 13.6/15.0, 128 14.8/17.0.
_PUSH_HOPS = 32


class ConfigError(ValueError):
    """A pipeline configuration is internally inconsistent."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run one enhancement stream."""

    params: FrameParams = FrameParams()
    window: WindowKind = TUKEY
    stage1: EstimatorKind = EstimatorKind("passthrough")
    beamformer: str | None = None  # None or "woodbury"
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
        bf = ("beamformer",) if self.beamformer is not None else ()
        stages = (("stage1", self.stage1, ("mixture",)), ("stage2", self.stage2, ("mixture", "stage1") + bf))
        for name, kind, sources in stages:
            if kind is not None and kind.kind == "passthrough" and kind.source not in sources:
                raise ConfigError(
                    f"{name}: passthrough source {kind.source!r} does not exist there; "
                    f"{name} sees {', '.join(sources)}"
                )
        if self.params.frames_ahead > 0 and self.stage2 is None and self.beamformer is not None:
            raise ConfigError(
                "frames_ahead > 0 needs an estimator as the final stage; a "
                "beamformer-terminated chain cannot predict ahead"
            )

    @property
    def needs_reference(self) -> bool:
        return self.stage1.is_oracle or (self.stage2 is not None and self.stage2.is_oracle)


@dataclass
class RunReport:
    """Outcome of one pipeline run.

    Serializes with stable key order; the two wall-clock fields are the
    only run-to-run variation for identical inputs. ``frame_time_ms_mean``
    is the total time of the input pushes divided by the input frames, and
    ``frame_time_ms_max`` is the largest per-frame mean of one push.
    """

    config: dict
    algorithmic_latency_ms: float
    frames: dict
    metrics: MetricReport | None
    frame_time_ms_mean: float
    frame_time_ms_max: float


class Session:
    """One stream through the configured chain, fed as its samples arrive.

    Each completed input hop runs one frame through analysis, stage 1, the
    MCWF, stage 2 and synthesis. A push runs them stage-major over its
    frames: one analysis call, stage 1 over the block, the MCWF frame by
    frame, stage 2 over the block, one synthesis and overlap-add call.
    Stage 1 and stage 2 read only frame t's inputs at frame t, so the
    output equals a frame-by-frame run bit for bit. The mixture is
    analyzed only when a stage reads it: the MCWF, an ``external`` stage at
    either position, or a ``passthrough`` whose source is ``mixture``
    (``EstimatorKind.reads_mixture``). Every other chain frames each hop
    through a zero-channel ``AnalysisStream``, so its blocks hold (T, 0,
    n_bins) bins; frame indices, ``frames`` and the output do not change.
    Construction does everything before the first frame: validation,
    window design, the oracle tables, estimator binding and MCWF state.
    The oracle tables are analyzed from the whole ``reference`` and
    ``mixture`` given here (``oracle_mag_mask`` reads channel ``ref_mic``
    of ``mixture``), so an oracle is causal in the streamed mixture only; a
    chain without an oracle only checks the ``reference`` length. A
    ``mixture`` must have ``channels`` rows; it also sets the reference
    length and the number of frames a frame file must hold. Single-writer;
    ``close`` ends external estimator children, after an error too.
    """

    def __init__(
        self,
        config: PipelineConfig,
        channels: int,
        reference: np.ndarray | None = None,
        mixture: np.ndarray | None = None,
    ):
        if config.ref_mic >= channels:
            raise ConfigError(f"ref_mic {config.ref_mic} out of range for {channels} channels")
        if config.beamformer is not None and channels == 1:
            warnings.warn(
                "beamforming a single channel degenerates to a single-channel Wiener filter",
                stacklevel=2,
            )
        if config.needs_reference and reference is None:
            raise ConfigError("an oracle estimator is configured but no reference was given")
        params = self.params = config.params
        g, self._l = build_windows(config.window, params)
        slots = replace(params, frames_ahead=0)  # table row r is output slot r at every k
        ref_frames = mix_ref_frames = expected_frames = None
        if mixture is not None:
            mixture = np.atleast_2d(np.asarray(mixture, dtype=np.float64))
            if mixture.shape[0] != channels:
                raise ConfigError(f"mixture has {mixture.shape[0]} channels, expected {channels}")
            expected_frames = mixture.shape[1] // params.hop
        if reference is not None:
            reference = np.asarray(reference, dtype=np.float64).reshape(-1)
            if mixture is not None and len(reference) != mixture.shape[1]:
                raise ConfigError(
                    f"reference length {len(reference)} does not match mixture {mixture.shape[1]}"
                )
            if config.needs_reference:
                ref_frames = analyze(reference, g, slots, True)
        stages = [kind.kind for kind in (config.stage1, config.stage2) if kind is not None]
        if mixture is not None and "oracle_mag_mask" in stages:
            mix_ref_frames = analyze(mixture[config.ref_mic], g, slots, True)

        self._bf = None
        if config.beamformer is not None:
            self._bf = OnlineMcwf(
                channels,
                params.n_bins,
                loading=config.loading,
                update_stride=config.update_stride,
                forgetting=config.forgetting,
            )
        k = params.frames_ahead
        stage1_is_last = config.stage2 is None and config.beamformer is None
        bound = dict(
            channels=channels,
            reference_frames=ref_frames,
            mixture_ref_frames=mix_ref_frames,
            expected_frames=expected_frames,
        )
        self._est1 = make_estimator(
            config.stage1, params, frames_ahead=k if stage1_is_last else 0, stage=1, **bound
        )
        self._est2 = None
        try:
            if config.stage2 is not None:
                self._est2 = make_estimator(config.stage2, params, frames_ahead=k, stage=2, **bound)
        except BaseException:
            self.close()
            raise
        self.channels = channels
        reads = config.beamformer is not None or any(
            kind is not None and kind.reads_mixture for kind in (config.stage1, config.stage2)
        )
        self._astream = AnalysisStream(g, params, channels if reads else 0)
        self._sstream = SynthesisStream(params)
        self._pushed = 0

    @property
    def frames(self) -> int:
        """Frames run through the chain so far."""
        return self._astream.frames_emitted

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Ingest samples, shape (channels, n), or (n,) for one channel, any
        n; returns the output samples released (possibly none). A chunk of
        another shape raises ``ValueError`` and changes nothing."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1 and self.channels == 1:
            chunk = chunk[np.newaxis]
        if chunk.ndim != 2:
            raise ValueError(f"expected a ({self.channels}, n) chunk, got shape {chunk.shape}")
        if len(chunk) != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {len(chunk)}")
        block = self._astream.push(chunk[: self._astream.channels])
        y, t0 = block.bins, block.first_frame
        out = s1 = self._est1.estimate_block(y, None, None, t0)
        bf_out = None
        if self._bf is not None:  # the only stage whose frame t reads frames before t
            out = bf_out = np.empty((len(y), self.params.n_bins), dtype=np.complex128)
            for i in range(len(y)):
                bf_out[i] = apply_filter(self._bf.update(y[i], s1[i]), y[i])
        if self._est2 is not None:
            out = self._est2.estimate_block(y, s1, bf_out, t0)
        self._pushed += chunk.shape[1]
        return self._sstream.push(synthesize_block(out, self._l, self.params, t0))

    def flush(self) -> np.ndarray:
        """Push zero hops up to ``params.frames_to_release`` of the samples
        pushed, releasing all of them; returns that output. Push no more."""
        n = max(self.params.frames_to_release(self._pushed) - self.frames, 0) * self.params.hop
        out = self.push(np.zeros((self.channels, n)))
        self._pushed -= n  # padding, not input: a second flush releases nothing
        return out

    def close(self):
        for est in (self._est1, self._est2):
            if est is not None:
                est.close()


def run_pipeline(
    config: PipelineConfig,
    mixture: np.ndarray,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Stream a mixture through the configured chain, 32 hops per push.

    Arguments:
        config: pipeline configuration
        mixture: (channels, n) or (n,) time-domain mixture
        reference: (n,) clean direct-path reference; required when any
            oracle estimator is configured, and enables metric computation
    Return:
        (enhanced, report): (n,) enhanced signal (same length as the
        input) and the run report, whose frame times are those of the
        input pushes
    """
    mixture = np.atleast_2d(np.asarray(mixture, dtype=np.float64))
    channels, n_samples = mixture.shape
    step = _PUSH_HOPS * config.params.hop
    out_parts: list[np.ndarray] = []
    pushes: list[tuple[float, int]] = []  # (seconds, frames) per input push
    with closing(Session(config, channels, reference, mixture)) as session:
        for start in range(0, n_samples, step):
            frames, t0 = session.frames, time.perf_counter()
            out_parts.append(session.push(mixture[:, start : start + step]))
            pushes.append((time.perf_counter() - t0, session.frames - frames))
        out_parts.append(session.flush())
    out = np.concatenate(out_parts)[:n_samples]

    n = session.frames
    metrics = compute_metrics(out, np.reshape(reference, -1)) if reference is not None else None
    push_s, push_frames = np.reshape(pushes, (-1, 2)).T
    report = RunReport(
        config=asdict(config),
        algorithmic_latency_ms=algorithmic_latency(config.params),
        frames={
            "analysis": n,
            "stage1": n,
            "beamformer": n if config.beamformer is not None else 0,
            "stage2": n if config.stage2 is not None else 0,
            "synthesis": n,
        },
        metrics=metrics,
        frame_time_ms_mean=1000.0 * float(push_s.sum() / max(push_frames.sum(), 1)),
        frame_time_ms_max=1000.0 * float(np.max(push_s / np.maximum(push_frames, 1), initial=0.0)),
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


def audit_latency(frames_ahead: int) -> LatencyCheck:
    """Empirically verify the latency arithmetic for one horizon of the
    default 16/4/2 ms geometry and window.

    Three checks, each on a :class:`Session` of an identity chain: an
    ``oracle_complex`` stage whose reference is the input delayed by
    ``frames_ahead`` hops, so that the row it replays at frame ``t`` is
    exactly frame ``t`` of the input:

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
    params = FrameParams(frames_ahead=frames_ahead)
    config = PipelineConfig(params=params, stage1=EstimatorKind("oracle_complex"))
    b = params.hop
    expected_samples = params.ows - frames_ahead * b
    rng = np.random.default_rng(7)
    total = (frames_ahead + 64) * b

    def identity(signal: np.ndarray) -> Session:
        return Session(config, 1, reference=np.concatenate([np.zeros(frames_ahead * b), signal]))

    def one_shot(signal: np.ndarray) -> np.ndarray:
        session = identity(signal)
        return np.concatenate([session.push(signal), session.flush()])

    # timing: the ingest count at which output sample n is first released; the
    # probes sit k hops later, so that no horizon releases them before any input
    x = rng.standard_normal(total)
    session = identity(x)
    released = np.cumsum([len(session.push(x[i : i + 1])) for i in range(total)])
    probes = ((frames_ahead + 16) * b, (frames_ahead + 24) * b)
    deltas = [int(np.searchsorted(released, n, side="right")) + 1 - n for n in probes]
    timing_ok = all(d == expected_samples for d in deltas)

    # impulse content lands frames_ahead hops late through an identity chain
    impulse_ok = True
    for n in (16 * b, 16 * b + b // 2):
        x_imp = np.zeros(total)
        x_imp[n] = 1.0
        out = one_shot(x_imp)
        expected_out = np.zeros(len(out))
        expected_out[n + frames_ahead * b] = 1.0
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
    outs = [one_shot(signal) for signal in (x, x2)]
    causality_ok = released_at_cut > 0 and bool(
        np.array_equal(outs[0][:released_at_cut], outs[1][:released_at_cut])
    )

    return LatencyCheck(
        frames_ahead=frames_ahead,
        expected_ms=algorithmic_latency(params),
        measured_ms=params.ms(max(deltas)),
        timing_ok=timing_ok,
        impulse_ok=impulse_ok,
        causality_ok=causality_ok,
    )
