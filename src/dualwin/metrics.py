"""Evaluation metrics: SI-SDR and two diagnostic loss scalars.

``si_sdr`` measures time-domain sample-level quality after optimally
scaling the reference onto the estimate. ``compute_metrics`` reports it
next to two L1 losses, each as a sum and as a mean over its terms: the
RI+magnitude loss on the real and imaginary parts and the magnitude of
the two signals' loss-STFT spectra, and the waveform+magnitude loss on the
samples plus that same magnitude term. The loss STFT is square-root Hann,
with a 512-sample window and a 128-sample hop (32/8 ms at 16 kHz). That
geometry is fixed in samples at every sample rate and is independent of
the enhancement pipeline's frame geometry. Both losses are sums, evaluated
as plain scalars; there is no gradient machinery here. The loss STFT is
framed in blocks of rows, so no whole-signal spectrogram is held: each
block writes its terms into one (3, T, F) array, and each kind of term is
then summed whole. ``compute_metrics`` compares sample n of an estimate
with sample n of its reference: the enhancement chain releases output
sample n aligned to input sample n, so there is no offset to undo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import FrameParams, SignalFrames
from .windows import SQRT_HANN, make_analysis_window

SI_SDR_CAP_DB = 100.0

# The loss STFT's (window, params): 512/128 samples, the same at every sample rate.
_LOSS_PARAMS = FrameParams(sample_rate=16000, iws=512, ows=128, hop=128, n_dft=512)
_LOSS_STFT = (make_analysis_window(SQRT_HANN, _LOSS_PARAMS), _LOSS_PARAMS)
# Loss-STFT frames per block of compute_metrics; a block's spectra and window products take
# 0.26 MB at 16. Tight-loop p25 ms on one CPU of a 2-vCPU host, 1 s / 30 s pair, two sweeps:
# blocks of 8 1.06-1.30 / 36.0-37.3, 16 1.28-1.37 / 30.1 (44.0 in a slow phase of the host),
# 32 1.45-1.48 / 29.0-29.3, 64 1.62-1.64 / 29.6-30.2, 128 1.83-1.91 / 28.5-28.8, against 1.41 /
# 41.1-42.4 for the whole-signal analysis. Replaying perfbench's 1 s batch jobs in the process
# that made their inputs, 8 and 16 took 0.1 minor faults per job, 32 to 128 took 789-976.
_METRIC_ROWS = 16


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    ``10*log10(||a*s||^2 / ||a*s - s_hat||^2)`` with ``a = <s_hat, s>/||s||^2``.
    The value is clamped to ``+-SI_SDR_CAP_DB`` so that exact matches (and
    exactly orthogonal or all-zero estimates) stay finite in reports; a
    non-finite sample in either signal raises ``ValueError``.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {ref.shape}")
    buf = np.empty_like(ref)  # each product in turn; the target, then its error, is the other array
    def dot(a, b):  # pairwise sum: a BLAS dot rounds by its thread count and wakes its workers
        return float(np.add.reduce(np.multiply(a, b, out=buf)))
    ref_energy = dot(ref, ref)
    # inf or nan in a signal makes its energy non-finite: one sum, not an isfinite pass
    if not math.isfinite(ref_energy + dot(est, est)):
        raise ValueError("estimate or reference is not finite")
    if ref_energy == 0.0:
        raise ValueError("reference signal has zero energy")
    alpha = dot(est, ref) / ref_energy
    target = alpha * ref
    target_energy = dot(target, target)
    if target_energy == 0.0:  # an all-zero or orthogonal estimate
        return -SI_SDR_CAP_DB
    err = np.subtract(target, est, out=target)
    err_energy = dot(err, err)
    if err_energy == 0.0:
        return SI_SDR_CAP_DB
    db = 10.0 * np.log10(target_energy / err_energy)
    return float(np.clip(db, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


@dataclass
class MetricReport:
    """Scalar metrics for one enhanced signal against its reference."""

    si_sdr_db: float
    ri_mag_loss: float
    ri_mag_loss_mean: float
    wav_mag_loss: float
    wav_mag_loss_mean: float
    n_samples: int


def compute_metrics(estimate: np.ndarray, reference: np.ndarray) -> MetricReport:
    """Build a :class:`MetricReport`: each loss as its sum and as its mean
    over the summed terms.

    Sample n of the estimate is compared with sample n of the reference,
    as the frame-online chain aligns them; there is no alignment search.
    The two signals are framed together through one
    :class:`~dualwin.framing.SignalFrames`, ``_METRIC_ROWS`` frames at a
    time, and each block writes |Re d|, |Im d| and | |S_hat| - |S| | (d
    being S_hat - S) into its rows of one (3, T, F) term array. Each of
    the three is then summed whole with ``np.sum``, so every sum is the
    pairwise sum of the unblocked terms, bit for bit. Both losses share the
    magnitude term, summed once. Besides the primed pair and the term array
    only one block's buffers are alive, and the pair and the array are
    freed before the waveform sum and SI-SDR. Signals that are not two (n,)
    arrays of one length raise ``ValueError`` first.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.ndim != 1 or est.shape != ref.shape:
        raise ValueError(f"expected two (n,) signals of one length, got shapes {est.shape} and {ref.shape}")
    frames = SignalFrames([est, ref], *_LOSS_STFT)
    n_frames, rows = len(frames), _METRIC_ROWS
    terms = np.empty((3, n_frames, _LOSS_STFT[1].n_bins))  # |Re d|, |Im d|, | |S_hat| - |S| |
    for t in range(0, n_frames, rows):
        stop = min(t + rows, n_frames)
        spec = frames.block(t, stop)  # (rows, 2, F): one rfft serves both signals
        re_t, im_t, mag_t = terms[:, t:stop]
        np.abs(spec[:, 0], out=re_t)  # |S_hat| and |S| borrow the rows |Re d| and |Im d| fill next
        np.abs(spec[:, 1], out=im_t)
        np.abs(np.subtract(re_t, im_t, out=mag_t), out=mag_t)
        d = spec[:, 0] - spec[:, 1]  # out=spec[:, 0] would copy both inputs first
        np.abs(d.real, out=re_t)
        np.abs(d.imag, out=im_t)
    # each term summed whole, as one contiguous (T, F) array: the pairwise sums of unblocked code
    mag = np.sum(terms[2])
    ri = float(np.sum(terms[0]) + np.sum(terms[1]) + mag)
    n_terms = terms[0].size
    del frames, terms  # before the waveform sum and SI-SDR take their own signal-length arrays
    wav = float(np.sum(np.abs(est - ref)) + mag)
    n_ri, n_wav = 3 * n_terms, est.size + n_terms
    return MetricReport(
        si_sdr_db=si_sdr(est, ref),
        ri_mag_loss=ri,
        ri_mag_loss_mean=ri / n_ri if n_ri else 0.0,
        wav_mag_loss=wav,
        wav_mag_loss_mean=wav / n_wav if n_wav else 0.0,
        n_samples=len(est),
    )
