"""Two-stage enhancement pipeline and latency auditing.

The streaming topology is: analysis -> stage-1 estimator -> (optional)
frame-online MCWF -> (optional) stage-2 estimator -> dual-window synthesis,
one frame per hop, run by a :class:`Session`; :func:`run_pipeline` pushes
32 hops at a time. A push runs the chain stage-major over the
``framing.FrameBlock`` of its frames, through each estimator's
``estimate_block``. The live mixture is analyzed only for the MCWF, an
``external`` stage or a ``passthrough`` of the mixture; other chains only
frame the hops. Oracle rows are framed when a push reads them, from the
signals given at construction. The per-frame entry points,
``framing.SpectrumFrame``, ``Estimator.estimate`` (a one-frame
``estimate_block``) and ``framing.synthesize_frame``, compose the same chain
one frame at a time; they stay as the benchmark adapter's entry until that
per-frame API is deleted (ROADMAP item 4 (c)), and tests hold the two
compositions equal bit for bit.

The chain works in the complex STFT domain, so the beamformer adds no
algorithmic latency; the only look-ahead in the whole chain is the output
window span minus the predicted hops, and :func:`audit_latency` measures
that from what one sample-by-sample Session run releases, against
:func:`dualwin.framing.algorithmic_latency`.

Future-frame prediction applies to the last estimator stage only, and the
:class:`Session` owns it: it reads that stage k rows ahead and every other
stage at the current frame, and :class:`PipelineConfig` refuses a horizon
the last stage cannot predict.
"""

from __future__ import annotations

import time
import warnings
from contextlib import closing
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .beamformer import DEFAULT_LOADING, MODES, OnlineMcwf, apply_filter, check_settings
from .estimators import EstimatorKind, make_estimator
from .framing import (
    AnalysisStream,
    FrameParams,
    SynthesisStream,
    algorithmic_latency,
    build_windows,
    synthesize_block,
)
from .metrics import MetricReport, compute_metrics
from .windows import TUKEY, WindowKind, peak_gain


# Hops per run_pipeline push: fewer pushes pay fewer fixed costs, but a push sizes the work buffer.
# Fastest-10 median ms of a 1 s 6-mic enhance job on 2 vCPUs, two sweeps: 1 hop 25.9/29.3,
# 8 hops 14.0/17.9, 16 13.2/16.5, 32 13.6/15.9, 64 13.6/15.0, 128 14.8/17.0.
_PUSH_HOPS = 32


class ConfigError(ValueError):
    """A pipeline configuration is internally inconsistent."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run one enhancement stream.

    ``ref_mic`` is the whole chain's reference microphone: a passthrough of
    the mixture forwards it and ``oracle_mag_mask`` masks it. ``loading``
    and ``forgetting`` obey ``OnlineMcwf``'s rule whether or not a
    beamformer reads them.

    At ``params.frames_ahead`` k > 0 the last stage predicts k frames ahead,
    so it must be a stage that can: an oracle, a frame file or an external
    estimator. A passthrough or the beamformer as the last stage raises
    ``ConfigError``.
    """

    params: FrameParams = FrameParams()
    window: WindowKind = TUKEY
    stage1: EstimatorKind = EstimatorKind("passthrough")
    beamformer: str | None = None  # None or "woodbury"
    stage2: EstimatorKind | None = None
    ref_mic: int = 0
    loading: float = DEFAULT_LOADING
    forgetting: float = 1.0
    # a constant, not a field: the benchmark adapter passes it on until ROADMAP item 2
    update_stride: ClassVar[int] = 1

    def __post_init__(self):
        if self.beamformer is not None and self.beamformer not in MODES:
            raise ConfigError(
                f"beamformer must be one of {MODES} or None, got {self.beamformer!r}"
            )
        if self.ref_mic < 0:
            raise ConfigError(f"ref_mic must be >= 0, got {self.ref_mic}")
        check_settings(self.loading, self.forgetting, ConfigError)
        bf = ("beamformer",) if self.beamformer is not None else ()
        stages = (("stage1", self.stage1, ("mixture",)), ("stage2", self.stage2, ("mixture", "stage1") + bf))
        for name, kind, sources in stages:
            if kind is not None and kind.kind == "passthrough" and kind.source not in sources:
                raise ConfigError(
                    f"{name}: passthrough source {kind.source!r} does not exist there; "
                    f"{name} sees {', '.join(sources)}"
                )
        last = {1: self.stage1, 2: self.stage2}.get(self.last_stage)
        if self.params.frames_ahead > 0 and (last is None or last.kind == "passthrough"):
            raise ConfigError(
                "frames_ahead > 0 needs a last stage that predicts (an oracle, a frame file or an "
                f"external estimator), not {'the beamformer' if last is None else 'a passthrough'}"
            )

    @property
    def last_stage(self) -> int | None:
        """The stage synthesized, 1 or 2, or None for the beamformer: the one that predicts."""
        return 2 if self.stage2 is not None else None if self.beamformer is not None else 1

    @property
    def needs_reference(self) -> bool:
        return self.stage1.is_oracle or (self.stage2 is not None and self.stage2.is_oracle)


@dataclass
class RunReport:
    """Outcome of one pipeline run.

    Serializes with stable key order; the two wall-clock fields are the
    only run-to-run variation for identical inputs. ``frames`` counts the
    frames the ``Session`` ran, flush included; every stage runs each of
    them. ``frame_time_ms_mean`` is the total time of the input pushes
    divided by the input frames, and ``frame_time_ms_max`` is the largest
    per-frame mean of one push. ``synthesis_peak_gain`` is max|l| of the
    synthesis window the ``Session`` ran (``windows.peak_gain``).
    """

    config: dict
    algorithmic_latency_ms: float
    frames: int
    synthesis_peak_gain: float
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
    window design, estimator binding and MCWF state. An oracle stage keeps
    only its primed time-domain signals, the ``reference`` given here and,
    for ``oracle_mag_mask``, channel ``ref_mic`` of the ``mixture`` given
    here; a push that reads rows past the block it holds frames and masks
    the next ``max(T, 32)`` of them with one ``rfft``
    (``estimators.OracleRows``). So no whole-signal spectrogram is kept,
    and an oracle is causal in the streamed mixture only. A chain without
    an oracle only checks the ``reference``: one channel, (n,) or (1, n),
    of the ``mixture``'s length. A ``mixture`` must have
    ``channels`` rows; it also sets the reference length and the rows a
    frame file may hold, from its whole hops up to the flush count.

    The Session owns the prediction horizon k = ``params.frames_ahead``. A
    push of frames ``t0 ..`` reads rows ``t0 + k ..`` of the last estimator
    stage (``PipelineConfig.last_stage``) and rows ``t0 ..`` of any other,
    and binds the last stage with horizon k, which an external child reads
    from its handshake.
    Single-writer; ``close`` ends external estimator children, after an
    error too.
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
        if mixture is not None:
            mixture = np.atleast_2d(np.asarray(mixture, dtype=np.float64))
            if mixture.shape[0] != channels:
                raise ConfigError(f"mixture has {mixture.shape[0]} channels, expected {channels}")
        if reference is not None:
            reference = np.asarray(reference, dtype=np.float64)
            if reference.ndim != 1 and reference.shape[:-1] != (1,):
                raise ConfigError(f"reference must be one channel, got shape {reference.shape}")
            reference = reference.reshape(-1)
            if mixture is not None and len(reference) != mixture.shape[1]:
                raise ConfigError(
                    f"reference length {len(reference)} does not match mixture {mixture.shape[1]}"
                )

        self._bf = None
        if config.beamformer is not None:
            self._bf = OnlineMcwf(
                channels,
                params.n_bins,
                loading=config.loading,
                forgetting=config.forgetting,
            )
        k = params.frames_ahead
        self._ahead1, self._ahead2 = (k if config.last_stage == stage else 0 for stage in (1, 2))
        bound = dict(
            channels=channels,
            ref_mic=config.ref_mic,
            window=g,
            reference=reference,
            mixture_ref=None if mixture is None else mixture[config.ref_mic],
        )
        self._est1 = make_estimator(
            config.stage1, params, frames_ahead=self._ahead1, stage=1, **bound
        )
        self._est2 = None
        try:
            if config.stage2 is not None:
                self._est2 = make_estimator(config.stage2, params, frames_ahead=self._ahead2, stage=2, **bound)
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
        self._flushed = False

    @property
    def frames(self) -> int:
        """Frames run through the chain so far."""
        return self._astream.frames_emitted

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Ingest samples, shape (channels, n), or (n,) for one channel, any
        n; returns the output samples released (possibly none). A chunk of
        another shape, or any push after :meth:`flush`, whose zero padding
        ended the stream, raises ``ValueError`` and changes nothing."""
        if self._flushed:
            raise ValueError("cannot push after flush: the stream has ended")
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1 and self.channels == 1:
            chunk = chunk[np.newaxis]
        if chunk.ndim != 2:
            raise ValueError(f"expected a ({self.channels}, n) chunk, got shape {chunk.shape}")
        if len(chunk) != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {len(chunk)}")
        block = self._astream.push(chunk[: self._astream.channels])
        y, t0 = block.bins, block.first_frame
        out = s1 = self._est1.estimate_block(y, None, None, t0 + self._ahead1)
        bf_out = None
        if self._bf is not None:  # the only stage whose frame t reads frames before t
            out = bf_out = np.empty((len(y), self.params.n_bins), dtype=np.complex128)
            for i in range(len(y)):
                bf_out[i] = apply_filter(self._bf.update(y[i], s1[i]), y[i])
        if self._est2 is not None:
            out = self._est2.estimate_block(y, s1, bf_out, t0 + self._ahead2)
        self._pushed += chunk.shape[1]
        return self._sstream.push(synthesize_block(out, self._l, self.params, t0))

    def flush(self) -> np.ndarray:
        """Push zero hops up to ``params.frames_to_release`` of the samples
        pushed, releasing all of them; returns that output. This ends the
        stream: a later flush releases nothing and a later push raises."""
        if self._flushed:
            return np.zeros(0)
        n = max(self.params.frames_to_release(self._pushed) - self.frames, 0) * self.params.hop
        out = self.push(np.zeros((self.channels, n)))
        self._flushed = True
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
        reference: (n,) or (1, n) clean direct-path reference; required
            when any oracle estimator is configured, and enables metric
            computation; any other shape raises ``ConfigError``
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

    metrics = compute_metrics(out, np.reshape(reference, -1)) if reference is not None else None
    push_s, push_frames = np.reshape(pushes, (-1, 2)).T
    report = RunReport(
        config=asdict(config),
        algorithmic_latency_ms=algorithmic_latency(config.params),
        frames=session.frames,
        synthesis_peak_gain=peak_gain(session._l),
        metrics=metrics,
        frame_time_ms_mean=1000.0 * float(push_s.sum() / max(push_frames.sum(), 1)),
        frame_time_ms_max=1000.0 * float(np.max(push_s / np.maximum(push_frames, 1), initial=0.0)),
    )
    return out, report


# ---------------------------------------------------------------------------
# latency auditing


@dataclass
class LatencyCheck:
    """Result of the timing/impulse/causality audit for one prediction horizon."""

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
    """Measure the latency of one horizon k of the default 16/4/2 ms
    geometry and window, from what one streamed run releases.

    A random 64-hop input is pushed one sample at a time into a
    :class:`Session` of an identity chain: an ``oracle_complex`` stage whose
    reference is the input delayed by k hops, so that the row it replays
    at frame ``t`` is exactly frame ``t`` of the input. Three checks read
    that run:

    * timing: every hop-boundary output sample from k hops on is released
      exactly ``algorithmic_latency(params)`` after its input sample n
      arrived, that is on ingesting sample ``n + ows - k * hop``;
    * impulse: the output equals the input k hops late at every sample
      (the identity chain cannot truly predict, so its content lands k hops
      late, which is exactly the shift a predictive estimator would
      cancel); a linear chain that does so reproduces an impulse anywhere;
    * causality: what the run released by the time it ingested a cut
      sample equals, bit for bit, a one-push run of the input zeroed from
      the cut on.
    """
    params = FrameParams(frames_ahead=frames_ahead)
    config = PipelineConfig(params=params, stage1=EstimatorKind("oracle_complex"))
    b, delay = params.hop, frames_ahead * params.hop
    x = np.random.default_rng(7).standard_normal(64 * b)

    def identity(signal: np.ndarray) -> Session:
        return Session(config, 1, reference=np.pad(signal, (delay, 0)))

    with closing(identity(x)) as session:
        parts = [session.push(x[i : i + 1]) for i in range(len(x))]
    out = np.concatenate(parts)
    released = np.cumsum([len(part) for part in parts])  # [i]: released after input i

    # the ingest count that first releases output sample n, less n; samples
    # before k hops wait for the first frame, so they come out later than that
    latency = algorithmic_latency(params)
    n = np.arange(delay, len(out), b)
    deltas = np.searchsorted(released, n, side="right") + 1 - n
    timing_ok = bool(np.all(deltas == latency * params.sample_rate / 1000))

    impulse_ok = bool(np.max(np.abs(out - np.pad(x, (delay, 0))[: len(out)])) < 1e-9)

    cut = 20 * b + 5
    x_cut = np.where(np.arange(len(x)) < cut, x, 0.0)
    with closing(identity(x_cut)) as session:
        one_push = session.push(x_cut)
    at_cut = released[cut - 1]
    causality_ok = bool(at_cut > 0 and np.array_equal(out[:at_cut], one_push[:at_cut]))

    return LatencyCheck(
        frames_ahead=frames_ahead,
        expected_ms=latency,
        measured_ms=params.ms(int(deltas.max())),
        timing_ok=timing_ok,
        impulse_ok=impulse_ok,
        causality_ok=causality_ok,
    )
