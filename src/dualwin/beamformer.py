"""Per-frequency multi-channel Wiener filtering (MCWF).

The filter for reference channel q minimizes, per frequency f,
``sum_t |S_q(t,f) - w(f)^H Y(t,f)|^2`` given a target estimate S_q. The
offline solution is ``w = Phi_yy^{-1} phi_ys`` with the mixture covariance
``Phi_yy = sum_t Y Y^H`` and the cross column ``phi_ys = sum_t Y S_q^*``
(the q-th column of the full cross matrix, which is never materialized).
The frame-online variant accumulates phi_ys one frame at a time and
either accumulates Phi_yy and re-solves ("direct" mode) or keeps only the
covariance inverse, through rank-1 Woodbury updates ("woodbury" mode), so
no per-frame matrix inversion is needed.

All-zero initial statistics would be singular, so both paths start from a
small diagonal loading eps*I (and the offline solver adds the same
loading), which keeps online and offline answers identical for the same
data. Shapes throughout: T frames, P channels, F frequency bins; mixtures
are (P, F) per frame or (T, P, F) as spectrograms, filters are (F, P).
"""

from __future__ import annotations

import numpy as np

DEFAULT_LOADING = 1e-6
MODES = ("direct", "woodbury")


class BeamformerStateError(RuntimeError):
    """Recursive state is numerically corrupted (lost positive-definiteness)."""


def woodbury_update(inv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-1 update of a Hermitian positive-definite inverse.

    Returns ``(inv^{-1} + y y^H)^{-1}`` computed as
    ``inv - (inv y y^H inv) / (1 + y^H inv y)`` without any inversion.

    Arguments:
        inv: (..., P, P) Hermitian PD inverse(s)
        y: (..., P) update vector(s)
    Return:
        (..., P, P) updated inverse(s)
    """
    inv = np.asarray(inv)
    y = np.asarray(y)
    num = inv @ y[..., :, None]  # (..., P, 1) = inv y; y^H inv = num^H
    den = 1.0 + np.real(y.conj()[..., None, :] @ num)  # (..., 1, 1)
    if np.any(den <= 0.0):
        raise BeamformerStateError(
            "Woodbury denominator <= 0; inverse is no longer positive-definite"
        )
    return inv - (num @ num.conj().swapaxes(-1, -2)) / den


def apply_filter(w: np.ndarray, mixture: np.ndarray) -> np.ndarray:
    """Beamform one frame: per frequency, ``w(f)^H Y(f)``.

    Arguments:
        w: (F, P) filter
        mixture: (P, F) one frame of the multichannel spectrogram
    Return:
        (F,) beamformed frame
    """
    w = np.asarray(w)
    mixture = np.asarray(mixture)
    if w.shape != (mixture.shape[1], mixture.shape[0]):
        raise ValueError(
            f"filter shape {w.shape} does not match frame shape {mixture.shape}"
        )
    return np.einsum("fp,pf->f", w.conj(), mixture)


def offline_mcwf(
    mixture: np.ndarray,
    target_estimate: np.ndarray,
    loading: float = DEFAULT_LOADING,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-invariant MCWF over a whole spectrogram.

    Arguments:
        mixture: (T, P, F) multichannel mixture spectrogram
        target_estimate: (T, F) estimated target at the reference channel
        loading: diagonal loading eps added to the covariance
    Return:
        (filters, beamformed): (F, P) filter and (T, F) result
    """
    Y = np.asarray(mixture)
    S = np.asarray(target_estimate)
    if Y.ndim != 3 or S.shape != (Y.shape[0], Y.shape[2]):
        raise ValueError(
            f"mixture (T,P,F) and estimate (T,F) mismatch: {Y.shape} vs {S.shape}"
        )
    P = Y.shape[1]
    phi_yy = np.einsum("tpf,tqf->fpq", Y, Y.conj())
    phi_yy += loading * np.eye(P)
    phi_ys = np.einsum("tpf,tf->fp", Y, S.conj())
    w = np.linalg.solve(phi_yy, phi_ys[..., None])[..., 0]
    beamformed = np.einsum("fp,tpf->tf", w.conj(), Y)
    return w, beamformed


class OnlineMcwf:
    """Frame-online MCWF state for one stream.

    Accumulates per-frequency covariance statistics frame by frame and
    recomputes the filter every ``update_stride`` frames (1 = every frame).
    ``forgetting`` < 1 exponentially discounts old frames; the default 1.0
    is plain accumulation and is what makes the final online filter match
    the offline solution exactly.

    Single-writer; frames must arrive in order. Frequency bins are
    independent, all updates are vectorized over F.
    """

    def __init__(
        self,
        channels: int,
        n_bins: int,
        mode: str = "woodbury",
        loading: float = DEFAULT_LOADING,
        update_stride: int = 1,
        forgetting: float = 1.0,
        ref_mic: int = 0,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if loading <= 0.0:
            raise ValueError(f"loading must be > 0, got {loading}")
        if update_stride < 1:
            raise ValueError(f"update_stride must be >= 1, got {update_stride}")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(f"forgetting must be in (0, 1], got {forgetting}")
        self.mode = mode
        self.loading = loading
        self.update_stride = update_stride
        self.forgetting = forgetting
        self.ref_mic = ref_mic
        eye = np.eye(channels, dtype=np.complex128)
        self.phi_ys = np.zeros((n_bins, channels), dtype=np.complex128)
        # each mode keeps only the covariance statistic its filter is formed from
        self.inv_yy = np.tile(eye / loading, (n_bins, 1, 1)) if mode == "woodbury" else None
        self.phi_yy = np.tile(loading * eye, (n_bins, 1, 1)) if mode == "direct" else None
        self._w = np.zeros((n_bins, channels), dtype=np.complex128)
        self._t = 0

    @property
    def frames_seen(self) -> int:
        return self._t

    @property
    def filter(self) -> np.ndarray:
        """Current (F, P) filter."""
        return self._w

    def update(self, mixture: np.ndarray, target_estimate: np.ndarray) -> np.ndarray:
        """Accumulate one frame and return the current filter.

        Arguments:
            mixture: (P, F) mixture frame
            target_estimate: (F,) stage-1 target estimate at the reference channel
        Return:
            (F, P) filter after this frame
        """
        Y = np.asarray(mixture, dtype=np.complex128).T  # (F, P)
        s = np.asarray(target_estimate, dtype=np.complex128)
        if Y.shape != self.phi_ys.shape or s.shape != (Y.shape[0],):
            raise ValueError(
                f"frame shapes {mixture.shape}/{s.shape} do not match state "
                f"{self.phi_ys.shape[::-1]}"
            )
        if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(s))):
            raise ValueError("non-finite values in beamformer update")
        lam = self.forgetting
        woodbury = self.mode == "woodbury"
        if lam != 1.0:
            self.phi_ys *= lam
            if woodbury:
                self.inv_yy /= lam
            else:
                self.phi_yy *= lam
        self.phi_ys += Y * s.conj()[:, None]
        if woodbury:
            self.inv_yy = woodbury_update(self.inv_yy, Y)
        else:
            self.phi_yy += np.einsum("fp,fq->fpq", Y, Y.conj())
        if self._t % self.update_stride == 0:
            if woodbury:
                self._w = np.einsum("fpq,fq->fp", self.inv_yy, self.phi_ys)
            else:
                self._w = np.linalg.solve(self.phi_yy, self.phi_ys[..., None])[..., 0]
        self._t += 1
        return self._w
