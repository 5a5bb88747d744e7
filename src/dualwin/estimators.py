"""Pluggable frame-online target estimators.

These stand in for the trained networks of a two-stage enhancement system:
each estimator consumes the current mixture frame (plus, in stage 2, the
stage-1 estimate and the beamformed frame) and produces an estimate of the
target spectrum at the reference channel for the target row its caller asks
for. ``pipeline.Session`` owns the prediction horizon k: it asks the last
estimator stage for row ``t + k`` at frame ``t`` and every other stage for
row ``t``. ``Estimator.estimate_block`` does this for a block of
consecutive frames at once, the way ``pipeline.Session`` runs a push; frame
``t`` of the block still reads only frame ``t``'s inputs. The per-frame
``estimate``, fed an :class:`EstimatorInput`, is the base class's view of a
one-frame block; only :class:`ExternalEstimator`, whose wire message is one
frame, defines its own. It is the entry point of the benchmark adapter,
which composes the chain from ``framing.SpectrumFrame`` and these calls,
and stays until that per-frame API is deleted (ROADMAP item 4 (c)).

Oracle estimators are deliberately clairvoyant: they replay frames of the
clean reference (and, for the magnitude mask, of the mixture reference
channel) computed with the identical analysis framing as the live stream,
so they exercise the exact dual-window signal path while providing
performance ceilings. Oracles and frame files alike are replayed one row
per frame by a :class:`TableEstimator`. Bound to time-domain signals, as
``pipeline.Session`` binds them, an oracle frames its rows from those
signals when they are read (:class:`OracleRows`), so no whole-signal
spectrogram is kept; bound to whole frame tables, as the benchmark adapter
and the tests pass them, it replays those. The ``external`` kind delegates
to a child process speaking a synchronous one-frame-in/one-frame-out stdio
protocol, which is the extension point for real models.

External protocol: after spawn, the parent writes one ASCII handshake line
``"<n_bins> <channels> <stage> <horizon>\\n"``; ``horizon`` is the number
of frames the stage must predict ahead, k for the chain's last stage and 0
for any other; a child that predicts nothing may ignore it. Per frame it
then writes a 4-byte little-endian unsigned length followed by that many
bytes of little-endian float32 values, interleaved (re, im) per bin: the
mixture frame (channels * n_bins pairs, channel-major), and for stage 2
additionally the stage-1 estimate (n_bins pairs) and the beamformed frame
(n_bins pairs, zeros when no beamformer runs). The child must reply with
the same framing: a 4-byte length then n_bins (re, im) float32 pairs for
the estimate.
"""

from __future__ import annotations

import cmath
import os
import select
import shlex
import struct
import subprocess
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .framing import FrameParams, SignalFrames

ESTIMATOR_KINDS = ("passthrough", "oracle_complex", "oracle_mag_mask", "file", "external")
PASSTHROUGH_SOURCES = ("mixture", "stage1", "beamformer")
MASK_FLOOR = 1e-8  # |Y| below this counts as a spectral null
MASK_CLIP = 5.0  # largest oracle mask gain
# Rows per block of _mask_table: two float buffers of 0.13 MB at 129 bins. Median ms of a 25 s
# table on 2 vCPUs, two sweeps: the unblocked code 22.9/23.9, one block 32.1/30.8, blocks of 16
# rows 28.8/29.4, 64 20.6/21.2, 128 19.2/20.2, 256 19.8/20.6, 512 23.9/25.0.
_MASK_ROWS = 128
# Rows an OracleRows frames at once: fewer make hop-sized pushes pay more rfft calls, more make
# the push that frames them stall longer. p25 us per 1-hop push of a 6-mic oracle_mag_mask
# Session on one CPU of a 2-vCPU host (the push that frames a block in brackets): blocks of 8
# rows 27.9 (87), 16 27.7 (131), 32 26.6 (223), 64 25.7 (388), 128 25.5 (723).
_ORACLE_ROWS = 32


class ExternalProtocolError(RuntimeError):
    """The external estimator child violated the frame protocol or timed out."""


class EstimatorInput(NamedTuple):
    """Everything a stage may look at for the current frame."""

    mixture: np.ndarray  # (channels, n_bins)
    stage1: np.ndarray | None = None  # (n_bins,), stage 2 only
    beamformed: np.ndarray | None = None  # (n_bins,), stage 2 only


@dataclass(frozen=True)
class EstimatorKind:
    """Declarative estimator selection, as written in configs.

    ``passthrough`` forwards one input unchanged (``source`` picks the
    mixture reference channel, the stage-1 estimate, or the beamformed
    frame); the oracle kinds need a clean reference bound at run time;
    ``file`` replays precomputed frames; ``external`` runs a child process.
    """

    kind: str
    channel: int = 0
    source: str = "mixture"
    path: str | None = None
    command: str | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(
                f"unknown estimator kind {self.kind!r}, expected one of {ESTIMATOR_KINDS}"
            )
        if self.channel < 0:
            raise ValueError(f"estimator channel must be >= 0, got {self.channel}")
        if self.kind == "passthrough" and self.source not in PASSTHROUGH_SOURCES:
            raise ValueError(
                f"passthrough source must be one of {PASSTHROUGH_SOURCES}, "
                f"got {self.source!r}"
            )
        if self.kind == "file" and not self.path:
            raise ValueError("file estimator requires a path")
        if self.kind == "external" and not self.command:
            raise ValueError("external estimator requires a command")

    @property
    def is_oracle(self) -> bool:
        return self.kind in ("oracle_complex", "oracle_mag_mask")

    @property
    def reads_mixture(self) -> bool:
        """Whether a stage of this kind reads the live mixture frames; a
        table kind reads only the rows it was bound to."""
        return self.kind == "external" or (self.kind == "passthrough" and self.source == "mixture")


class Estimator:
    """Session-bound estimator: maps (input, target row t) to the estimate of row t."""

    def __init__(self, n_bins: int):
        self.n_bins = n_bins

    def estimate(self, inp: EstimatorInput, t: int) -> np.ndarray:
        """The estimate of target row ``t``: row 0 of :meth:`estimate_block`
        over the one-frame block of ``inp``."""
        stage1, beamformed = inp.stage1, inp.beamformed
        return self.estimate_block(
            inp.mixture[np.newaxis],
            None if stage1 is None else stage1[np.newaxis],
            None if beamformed is None else beamformed[np.newaxis],
            t,
        )[0]

    def estimate_block(
        self,
        mixture: np.ndarray,
        stage1: np.ndarray | None,
        beamformed: np.ndarray | None,
        t0: int,
    ) -> np.ndarray:
        """Estimates of the target rows ``t0 .. t0 + T - 1``, ``t0 >= 0``,
        shape (T, n_bins), from the (T, channels, n_bins) mixture and, in
        stage 2, the (T, n_bins) stage-1 and beamformed blocks; row i reads
        only frame i of the inputs. The caller picks the rows:
        ``pipeline.Session`` passes its first frame plus the stage's
        horizon. The result may be a view of the inputs or of a table."""
        raise NotImplementedError

    def close(self):
        pass


class PassthroughEstimator(Estimator):
    """Identity stage: forwards current-frame input, whatever the target row.
    It cannot predict, so ``make_estimator`` refuses it a horizon."""

    def __init__(self, n_bins, channel=0, source="mixture"):
        super().__init__(n_bins)
        self.channel = channel
        self.source = source

    def estimate_block(self, mixture, stage1, beamformed, t0):
        if self.source == "mixture":
            return mixture[:, self.channel]
        # PipelineConfig rejects a source the stage cannot see
        return stage1 if self.source == "stage1" else beamformed


class TableEstimator(Estimator):
    """Replays row ``t`` of a (T, n_bins) table, or zeros outside it:
    the reference frames, a frame file, or the oracle magnitude-masked
    mixture. The table is an array, or an :class:`OracleRows` that frames
    its rows when they are read; either is read by slices, one row long for
    the per-frame ``estimate``."""

    def __init__(self, n_bins, table):
        super().__init__(n_bins)
        self.table = table

    def estimate_block(self, mixture, stage1, beamformed, t0):
        rows = self.table[t0 : t0 + len(mixture)]  # short past the table's end
        if len(rows) == len(mixture):
            return rows
        block = np.zeros((len(mixture), self.n_bins), dtype=np.complex128)
        block[: len(rows)] = rows
        return block


def _mask_block(s: np.ndarray, y: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write ``min(|S| / max(|Y|, MASK_FLOOR), MASK_CLIP) * Y`` of one block
    of rows into ``out``, through the two float buffers ``work[0]`` and
    ``work[1]`` of its shape; returns ``out``.

    Keeps the mixture phase; the clip stops spectral nulls from blowing the
    filter up, and the ratio is never negative, so it needs no lower clip.
    """
    m, mag_s = work
    np.abs(y, out=m)
    np.maximum(m, MASK_FLOOR, out=m)
    np.divide(np.abs(s, out=mag_s), m, out=m)
    np.minimum(m, MASK_CLIP, out=m)
    return np.multiply(m, y, out=out)


def _mask_table(reference_frames: np.ndarray, mixture_frames: np.ndarray) -> np.ndarray:
    """:func:`_mask_block` over the shorter of S and Y, ``_MASK_ROWS`` rows
    at a time into the preallocated result, so besides the result only the
    two (``_MASK_ROWS``, F) float buffers exist."""
    n = min(len(reference_frames), len(mixture_frames))
    s, y = np.asarray(reference_frames)[:n], np.asarray(mixture_frames)[:n]
    table = np.empty(y.shape, dtype=np.result_type(y.dtype, np.float64))
    work = np.empty((2, min(n, _MASK_ROWS)) + y.shape[1:])
    for t in range(0, n, _MASK_ROWS):
        stop = min(t + _MASK_ROWS, n)
        _mask_block(s[t:stop], y[t:stop], table[t:stop], work[:, : stop - t])
    return table


class OracleRows:
    """The rows of an oracle table, framed when they are read from the
    primed signals of a ``framing.SignalFrames``.

    Without ``mask`` the rows are the frames of its one signal, the
    reference (``oracle_complex``). With ``mask`` they are
    :func:`_mask_block` of its two signals, the reference and the mixture's
    reference channel, which one ``rfft`` frames together
    (``oracle_mag_mask``). It is read by contiguous slices only: ``rows[a:b]``
    holds the rows of the whole table, byte for byte, however the reads
    fall. A read that leaves the block of rows held frames the next
    ``_ORACLE_ROWS`` rows from its start, or all it reads if that is more,
    and keeps only them: hop-sized pushes share one ``rfft`` and mask per
    block, and a long signal costs no more memory than a short one.
    """

    def __init__(self, frames: SignalFrames, mask: bool):
        self._frames, self._mask, self._n = frames, mask, len(frames)
        self._first, self._rows = 0, np.empty((0, frames.params.n_bins), dtype=np.complex128)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key: slice) -> np.ndarray:
        start, stop, _ = key.indices(self._n)
        if stop <= start:
            return self._rows[:0]
        if start < self._first or stop > self._first + len(self._rows):
            self._first = start
            self._rows = self._framed(start, min(max(stop, start + _ORACLE_ROWS), self._n))
        return self._rows[start - self._first : stop - self._first]

    def _framed(self, start: int, stop: int) -> np.ndarray:
        rows = self._frames.block(start, stop)
        if not self._mask:
            return rows[:, 0]
        s, y = rows[:, 0], rows[:, 1]
        return _mask_block(s, y, np.empty(y.shape, dtype=np.complex128), np.empty((2,) + y.shape))


def save_frame_file(path, frames: np.ndarray, params: FrameParams):
    """Write an estimate spectrogram (T, n_bins) with its frame geometry."""
    frames = np.asarray(frames, dtype=np.complex128)
    np.savez(
        path,
        frames=frames,
        sample_rate=params.sample_rate,
        iws=params.iws,
        ows=params.ows,
        hop=params.hop,
        n_dft=params.n_dft,
    )


def load_frame_file(path, params: FrameParams, samples: int | None = None) -> np.ndarray:
    """Load and validate a frame file against the pipeline geometry and a
    stream of ``samples`` n: from ``n // hop`` rows, one per whole hop, up
    to the flush count, ``frames_to_release(n)`` at ``frames_ahead`` 0."""
    try:
        with np.load(path) as data:
            frames = np.asarray(data["frames"])
            stored = {k: int(data[k]) for k in ("sample_rate", "iws", "ows", "hop", "n_dft")}
    except (EOFError, KeyError, TypeError) as exc:  # empty, a field missing, or not an .npz
        raise ValueError(f"frame file {path} is not an archive from save_frame_file: {exc}") from exc
    for key, value in stored.items():
        if value != getattr(params, key):
            raise ValueError(
                f"frame file {key}={value} does not match pipeline {key}="
                f"{getattr(params, key)}"
            )
    if frames.ndim != 2 or frames.shape[1] != params.n_bins:
        raise ValueError(
            f"frame file shape {frames.shape} does not match {params.n_bins} bins"
        )
    if samples is not None:
        lo, hi = samples // params.hop, replace(params, frames_ahead=0).frames_to_release(samples)
        if not lo <= len(frames) <= hi:
            raise ValueError(f"frame file holds {len(frames)} frames, stream expects {lo} to {hi}")
    return frames


class ExternalEstimator(Estimator):
    """Child process speaking the stdio frame protocol (see module docs)."""

    def __init__(self, n_bins, command, channels, stage, horizon=0, timeout=10.0):
        super().__init__(n_bins)
        self.stage = stage
        self.timeout = timeout
        self._failed = False  # a timeout or protocol error: close kills the child
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        # unbuffered pipes: every byte is either consumed or still visible
        # to select(), so timeouts cannot fire with data in flight
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        try:
            self._write_all(f"{n_bins} {channels} {stage} {horizon}\n".encode("ascii"))
        except ExternalProtocolError:  # the child is gone: reap it and close both pipe ends
            self._failed = True
            self.close()
            raise

    @staticmethod
    def _encode(values: np.ndarray) -> bytes:
        """Little-endian float32 (re, im) pairs, C order."""
        return np.asarray(values).astype("<c8").tobytes()

    def _write_all(self, data: bytes):
        view = memoryview(data)
        try:
            while view:
                written = self._proc.stdin.write(view)
                view = view[written:]
        except (BrokenPipeError, ValueError) as exc:
            raise ExternalProtocolError(f"external estimator pipe closed: {exc}") from exc

    def _read_reply(self) -> bytes:
        """One reply frame, length prefix included. A reply that is already
        complete takes one select and one read; the loop runs again only for
        the rest, and never reads past the frame."""
        fd = self._proc.stdout.fileno()
        expected = self.n_bins * 8
        raw = b""
        while len(raw) < 4 + expected:
            if not select.select([fd], [], [], self.timeout)[0]:
                raise ExternalProtocolError(f"external estimator timed out after {self.timeout}s")
            chunk = os.read(fd, 4 + expected - len(raw))
            if not chunk:
                raise ExternalProtocolError("external estimator closed its output mid-frame")
            raw += chunk
            if len(raw) >= 4 and (length := struct.unpack_from("<I", raw)[0]) != expected:
                raise ExternalProtocolError(
                    f"external estimator replied {length} bytes, expected {expected}"
                )
        return raw

    def estimate(self, inp, t):
        payload = self._encode(inp.mixture)
        if self.stage == 2:
            beamformed = inp.beamformed
            if beamformed is None:
                beamformed = np.zeros(self.n_bins, dtype=np.complex128)
            payload += self._encode(inp.stage1) + self._encode(beamformed)
        try:
            self._write_all(struct.pack("<I", len(payload)) + payload)
            raw = self._read_reply()
            est = np.frombuffer(raw, "<c8", offset=4).astype(np.complex128)
            # a float64 sum of float32 values cannot overflow, so it is finite
            # exactly when every value is; 1.2 us against 2.0 for isfinite().all()
            if not cmath.isfinite(np.add.reduce(est)):
                raise ExternalProtocolError(f"external estimator replied non-finite values in frame {t}")
        except ExternalProtocolError:
            self._failed = True
            raise
        return est

    def estimate_block(self, mixture, stage1, beamformed, t0):
        # one message per frame, in frame order: the wire bytes of per-frame estimate
        block = np.empty((len(mixture), self.n_bins), dtype=np.complex128)
        for i in range(len(mixture)):
            s1 = None if stage1 is None else stage1[i]
            bf = None if beamformed is None else beamformed[i]
            block[i] = self.estimate(EstimatorInput(mixture[i], s1, bf), t0 + i)
        return block

    def close(self):
        """End the child: EOF and a grace period after clean use, so it can
        finish its output; killed at once after a timeout or protocol error.
        Both pipe ends are closed, whether or not the child had exited."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=0.0 if self._failed else 2.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def make_estimator(
    kind: EstimatorKind,
    params: FrameParams,
    frames_ahead: int,
    channels: int,
    stage: int,
    reference_frames: np.ndarray | None = None,
    mixture_ref_frames: np.ndarray | None = None,
    expected_frames: int | None = None,
    window: np.ndarray | None = None,
    reference: np.ndarray | None = None,
    mixture_ref: np.ndarray | None = None,
) -> Estimator:
    """Bind a declarative :class:`EstimatorKind` to one streaming session.

    An oracle is bound to the time-domain ``reference`` and, for
    ``oracle_mag_mask``, ``mixture_ref``, the mixture's reference channel,
    when they are given: its rows are framed with the analysis ``window``
    when they are read (:class:`OracleRows`), at ``frames_ahead`` 0 and up
    to the flush length, so row r is output slot r at every k. That is how
    ``pipeline.Session`` binds it. Otherwise it replays the whole frame
    tables ``reference_frames`` and ``mixture_ref_frames``, as the benchmark
    adapter and the tests pass them. A frame file holds the rows of a
    stream of ``len(mixture_ref)`` samples, or of ``expected_frames`` whole
    hops (:func:`load_frame_file`).

    ``frames_ahead`` is the stage's horizon, the frames it must predict
    ahead. An external child is told it in the handshake; a passthrough
    cannot predict and refuses a nonzero one with ``ValueError``; a table
    ignores it, because its caller reads the rows ahead.
    """
    n_bins = params.n_bins
    if kind.kind == "passthrough":
        if frames_ahead:
            raise ValueError(f"a passthrough cannot predict ahead, got frames_ahead={frames_ahead}")
        if kind.channel >= channels:
            raise ValueError(
                f"passthrough channel {kind.channel} out of range for "
                f"{channels} channels"
            )
        return PassthroughEstimator(n_bins, kind.channel, kind.source)
    if kind.is_oracle:
        signals = reference is not None
        if not signals and reference_frames is None:
            raise ValueError(f"{kind.kind} estimator requires a reference signal")
        mask = kind.kind == "oracle_mag_mask"
        if mask and (mixture_ref if signals else mixture_ref_frames) is None:
            raise ValueError("oracle_mag_mask requires the mixture's reference channel")
        if signals:
            slots = replace(params, frames_ahead=0)
            framed = SignalFrames([reference, mixture_ref] if mask else reference, window, slots, True)
            table = OracleRows(framed, mask)
        elif mask:
            table = _mask_table(reference_frames, mixture_ref_frames)
        else:
            table = np.asarray(reference_frames)
        return TableEstimator(n_bins, table)
    if kind.kind == "file":
        n = None if expected_frames is None else expected_frames * params.hop
        if mixture_ref is not None:
            n = len(mixture_ref)
        return TableEstimator(n_bins, load_frame_file(kind.path, params, n))
    return ExternalEstimator(n_bins, kind.command, channels, stage, frames_ahead)
