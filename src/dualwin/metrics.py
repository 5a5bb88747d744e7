"""Evaluation metrics: SI-SDR and two diagnostic loss scalars.

``si_sdr`` measures time-domain sample-level quality after optimally
scaling the reference onto the estimate. ``ri_mag_loss`` is the L1 loss on
real/imaginary spectrogram components plus their magnitude; ``wav_mag_loss``
is the L1 loss on the re-synthesized waveform plus the magnitude of a
dedicated loss STFT: square-root Hann, a 512-sample window and a 128-sample
hop (32/8 ms at 16 kHz). That geometry is fixed in samples at every sample
rate and is independent of the enhancement pipeline's frame geometry. Both
losses are sums, evaluated as plain scalars; there is no gradient machinery
here. ``compute_metrics`` compares sample n of an estimate with sample n
of its reference: the enhancement chain releases output sample n aligned
to input sample n, so there is no offset to undo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import FrameParams, analyze
from .windows import SQRT_HANN, make_analysis_window

SI_SDR_CAP_DB = 100.0

# The loss STFT's (window, params): 512/128 samples, the same at every sample rate.
_LOSS_PARAMS = FrameParams(sample_rate=16000, iws=512, ows=128, hop=128, n_dft=512)
_LOSS_STFT = (make_analysis_window(SQRT_HANN, _LOSS_PARAMS), _LOSS_PARAMS)


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
    ref_energy = float(np.dot(ref, ref))
    # inf or nan in a signal makes its energy non-finite: one dot, not an isfinite pass
    if not math.isfinite(ref_energy + float(np.dot(est, est))):
        raise ValueError("estimate or reference is not finite")
    if ref_energy == 0.0:
        raise ValueError("reference signal has zero energy")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    target_energy = float(np.dot(target, target))
    if target_energy == 0.0:  # an all-zero or orthogonal estimate
        return -SI_SDR_CAP_DB
    err_energy = float(np.dot(target - est, target - est))
    if err_energy == 0.0:
        return SI_SDR_CAP_DB
    db = 10.0 * np.log10(target_energy / err_energy)
    return float(np.clip(db, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


def _ri_mag_terms(s_hat, s) -> tuple[float, int]:
    """The RI+magnitude loss as (sum, number of summed terms)."""
    d = s_hat - s
    total = (
        np.sum(np.abs(d.real))
        + np.sum(np.abs(d.imag))
        + np.sum(np.abs(np.abs(s_hat) - np.abs(s)))
    )
    return float(total), 3 * s.size


def _wav_mag_terms(s_hat, s, spec_hat, spec) -> tuple[float, int]:
    """The waveform+magnitude loss as (sum, number of summed terms)."""
    total = np.sum(np.abs(s_hat - s)) + np.sum(np.abs(np.abs(spec_hat) - np.abs(spec)))
    return float(total), s.size + spec.size


def ri_mag_loss(estimate: np.ndarray, reference: np.ndarray) -> float:
    """L1 loss on RI components and magnitude of two complex spectrograms.

    Sum of three terms: |dRe|, |dIm|, and | |S_hat| - |S| |, each summed
    over every bin.
    """
    s_hat = np.asarray(estimate)
    s = np.asarray(reference)
    if s_hat.shape != s.shape:
        raise ValueError(f"shape mismatch: {s_hat.shape} vs {s.shape}")
    return _ri_mag_terms(s_hat, s)[0]


def wav_mag_loss(estimate: np.ndarray, reference: np.ndarray) -> float:
    """L1 waveform loss plus L1 loss on the loss-STFT magnitudes.

    The loss STFT is fixed (see the module docstring) and unrelated to
    whatever frame geometry produced the signals.
    """
    s_hat = np.asarray(estimate, dtype=np.float64)
    s = np.asarray(reference, dtype=np.float64)
    if s_hat.shape != s.shape:
        raise ValueError(f"length mismatch: {s_hat.shape} vs {s.shape}")
    spectra = (analyze(s_hat, *_LOSS_STFT), analyze(s, *_LOSS_STFT))
    return _wav_mag_terms(s_hat, s, *spectra)[0]


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
    Both losses use the loss-STFT spectra of the two signals, each
    analyzed once.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    spec_est, spec_ref = analyze(est, *_LOSS_STFT), analyze(ref, *_LOSS_STFT)
    ri, n_ri = _ri_mag_terms(spec_est, spec_ref)
    wav, n_wav = _wav_mag_terms(est, ref, spec_est, spec_ref)
    return MetricReport(
        si_sdr_db=si_sdr(est, ref),
        ri_mag_loss=ri,
        ri_mag_loss_mean=ri / n_ri if n_ri else 0.0,
        wav_mag_loss=wav,
        wav_mag_loss_mean=wav / n_wav if n_wav else 0.0,
        n_samples=len(est),
    )
