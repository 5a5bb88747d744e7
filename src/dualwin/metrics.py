"""Evaluation metrics: SI-SDR and two diagnostic loss scalars.

``si_sdr`` measures time-domain sample-level quality after optimally
scaling the reference onto the estimate. ``ri_mag_loss`` is the L1 loss on
real/imaginary spectrogram components plus their magnitude; ``wav_mag_loss``
is the L1 loss on the re-synthesized waveform plus the magnitude of a
dedicated loss STFT (square-root Hann, 32 ms window, 8 ms hop by default,
deliberately independent of the enhancement pipeline's frame geometry).
Both losses are evaluated as plain scalars; there is no gradient machinery
here.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .framing import FrameParams, analyze
from .windows import AnalysisWindow, SQRT_HANN, make_analysis_window

SI_SDR_CAP_DB = 100.0


def si_sdr(estimate: np.ndarray, reference: np.ndarray, cap_db: float = SI_SDR_CAP_DB) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    ``10*log10(||a*s||^2 / ||a*s - s_hat||^2)`` with ``a = <s_hat, s>/||s||^2``.
    The value is clamped to ``[-cap_db, cap_db]`` so that exact matches (and
    exactly orthogonal or all-zero estimates) stay finite in reports.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {ref.shape}")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("reference signal has zero energy")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    target_energy = float(np.dot(target, target))
    if target_energy == 0.0:  # an all-zero or orthogonal estimate
        return -cap_db
    err_energy = float(np.dot(target - est, target - est))
    if err_energy == 0.0:
        return cap_db
    return float(np.clip(10.0 * np.log10(target_energy / err_energy), -cap_db, cap_db))


def _reduce(terms: tuple[float, int], reduce: str) -> float:
    """A loss from (sum, number of summed terms): the sum, or the mean."""
    total, n_terms = terms
    if reduce == "mean":
        return total / n_terms if n_terms else 0.0
    if reduce != "sum":
        raise ValueError(f"reduce must be 'sum' or 'mean', got {reduce!r}")
    return total


def _ri_mag_terms(s_hat, s) -> tuple[float, int]:
    d = s_hat - s
    total = (
        np.sum(np.abs(d.real))
        + np.sum(np.abs(d.imag))
        + np.sum(np.abs(np.abs(s_hat) - np.abs(s)))
    )
    return float(total), 3 * s.size


def _wav_mag_terms(s_hat, s, spec_hat, spec) -> tuple[float, int]:
    total = np.sum(np.abs(s_hat - s)) + np.sum(np.abs(np.abs(spec_hat) - np.abs(spec)))
    return float(total), s.size + spec.size


def ri_mag_loss(
    estimate: np.ndarray, reference: np.ndarray, reduce: str = "sum"
) -> float:
    """L1 loss on RI components and magnitude of two complex spectrograms.

    Sum of three terms: |dRe|, |dIm|, and | |S_hat| - |S| |, each summed
    over every bin. ``reduce="mean"`` divides by the number of summed
    scalar terms (three per bin).
    """
    s_hat = np.asarray(estimate)
    s = np.asarray(reference)
    if s_hat.shape != s.shape:
        raise ValueError(f"shape mismatch: {s_hat.shape} vs {s.shape}")
    return _reduce(_ri_mag_terms(s_hat, s), reduce)


def default_loss_stft(sample_rate: int = 16000) -> tuple[AnalysisWindow, FrameParams]:
    """Loss-STFT geometry: sqrt-Hann, 32 ms window, 8 ms hop."""
    iws = int(round(0.032 * sample_rate))
    hop = int(round(0.008 * sample_rate))
    params = FrameParams(
        sample_rate=sample_rate, iws=iws, ows=hop, hop=hop, n_dft=iws
    )
    return make_analysis_window(SQRT_HANN, iws), params


def wav_mag_loss(
    estimate: np.ndarray,
    reference: np.ndarray,
    loss_stft: tuple[AnalysisWindow, FrameParams] | None = None,
    reduce: str = "sum",
) -> float:
    """L1 waveform loss plus L1 loss on the loss-STFT magnitudes.

    The STFT used here is fixed by ``loss_stft`` (default
    :func:`default_loss_stft`) and is unrelated to whatever frame geometry
    produced the signals.
    """
    s_hat = np.asarray(estimate, dtype=np.float64)
    s = np.asarray(reference, dtype=np.float64)
    if s_hat.shape != s.shape:
        raise ValueError(f"length mismatch: {s_hat.shape} vs {s.shape}")
    window, params = loss_stft if loss_stft is not None else default_loss_stft()
    spectra = (analyze(s_hat, window, params), analyze(s, window, params))
    return _reduce(_wav_mag_terms(s_hat, s, *spectra), reduce)


@dataclass
class MetricReport:
    """Scalar metrics for one enhanced signal against its reference."""

    si_sdr_db: float
    ri_mag_loss: float
    ri_mag_loss_mean: float
    wav_mag_loss: float
    wav_mag_loss_mean: float
    n_samples: int
    alignment_offset: int

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(
    estimate: np.ndarray, reference: np.ndarray, offset: int = 0
) -> MetricReport:
    """Build a :class:`MetricReport`.

    ``offset`` > 0 drops the first ``offset`` estimate samples and the last
    ``offset`` reference samples before comparison (the estimate lags the
    reference by a known integer amount); there is no alignment search.
    Both losses use the :func:`default_loss_stft` spectra of the aligned
    signals, each analyzed once.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if offset:
        est = est[offset:]
        ref = ref[: len(est)]
    window, params = default_loss_stft()
    spec_est, spec_ref = analyze(est, window, params), analyze(ref, window, params)
    ri = _ri_mag_terms(spec_est, spec_ref)
    wav = _wav_mag_terms(est, ref, spec_est, spec_ref)
    return MetricReport(
        si_sdr_db=si_sdr(est, ref),
        ri_mag_loss=_reduce(ri, "sum"),
        ri_mag_loss_mean=_reduce(ri, "mean"),
        wav_mag_loss=_reduce(wav, "sum"),
        wav_mag_loss_mean=_reduce(wav, "mean"),
        n_samples=len(est),
        alignment_offset=offset,
    )
