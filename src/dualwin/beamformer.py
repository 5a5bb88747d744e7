"""Per-frequency multi-channel Wiener filtering (MCWF).

The filter for reference channel q minimizes, per frequency f,
``sum_t |S_q(t,f) - w(f)^H Y(t,f)|^2`` given a target estimate S_q. The
offline solution is ``w = Phi_yy^{-1} phi_ys`` with the mixture covariance
``Phi_yy = sum_t Y Y^H`` and the cross column ``phi_ys = sum_t Y S_q^*``
(the q-th column of the full cross matrix, which is never materialized).
The frame-online variant runs the exponentially weighted recursive least
squares (RLS) recursion: it keeps only the covariance inverse, updated by
rank-1 Woodbury steps, and the filter itself, so no per-frame matrix
inversion or solve is needed.

All-zero initial statistics would be singular, so the recursion starts
from a small diagonal loading eps*I (and the offline solver adds the same
loading), which keeps online and offline answers identical for the same
data. Shapes throughout: T frames, P channels, F frequency bins; mixtures
are (P, F) per frame or (T, P, F) as spectrograms, filters are (F, P).
"""

from __future__ import annotations

import numpy as np

DEFAULT_LOADING = 1e-6
MODES = ("woodbury",)


class BeamformerStateError(RuntimeError):
    """Online state is numerically broken: the RLS inverse lost positive-definiteness."""


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
    return np.add.reduce(w.T.conj() * mixture, axis=0)


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

    Exponentially weighted recursive least squares (Haykin, *Adaptive
    Filter Theory*, RLS chapter). It keeps two arrays, both frequency-last
    so that every numpy op streams over the contiguous bins: the inverse
    covariance ``P`` (P, P, F), starting at I/loading, and the filter ``w``
    (P, F), starting at 0. Per frame, with mixture ``y``, target estimate
    ``s`` and forgetting factor ``lam``::

        P /= lam
        den = 1 + y^H P y
        e = s - w^H y              (a-priori error)
        w += P y e^* / den
        P -= u u^H,  u = P y / sqrt(den)

    which gives the same filter as re-solving the loaded, discounted normal
    equations every frame, loading decay under ``lam < 1`` included. The
    rank-1 term is formed with ``einsum``, whose complex products are not
    fused, so ``u_p u_q^*`` and ``u_q u_p^*`` are exact conjugates and
    ``P`` stays exactly Hermitian. numpy's SIMD complex multiply uses FMA,
    so a broadcast ``*`` would leave the two triangles a last bit apart;
    the recursion grows that skew over thousands of frames until ``P``
    loses definiteness and :class:`BeamformerStateError` fires.

    A new filter is returned every ``update_stride`` frames (1 = every
    frame) and held in between. ``forgetting`` < 1 exponentially discounts
    old frames; the default 1.0 is plain accumulation and is what makes the
    final online filter match the offline solution exactly. ``mode`` (only
    ``"woodbury"``) and ``ref_mic`` (unused) are accepted because the
    benchmark adapter passes them.

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
        if not 0.0 < loading < np.inf:
            raise ValueError(f"loading must be finite and > 0, got {loading}")
        if update_stride < 1:
            raise ValueError(f"update_stride must be >= 1, got {update_stride}")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(f"forgetting must be in (0, 1], got {forgetting}")
        self.update_stride = update_stride
        self.forgetting = forgetting
        self._shape = (channels, n_bins)
        self._filter = np.zeros((n_bins, channels), dtype=np.complex128)
        eye = np.eye(channels, dtype=np.complex128)
        self._inv = np.tile((eye / loading)[:, :, None], (1, 1, n_bins))
        self._w = np.zeros((channels, n_bins), dtype=np.complex128)
        self._tmp = np.empty_like(self._inv)
        self._t = 0

    @property
    def frames_seen(self) -> int:
        return self._t

    @property
    def filter(self) -> np.ndarray:
        """Current (F, P) filter."""
        return self._filter

    def update(self, mixture: np.ndarray, target_estimate: np.ndarray) -> np.ndarray:
        """Accumulate one frame and return the current filter.

        Arguments:
            mixture: (P, F) mixture frame
            target_estimate: (F,) stage-1 target estimate at the reference channel
        Return:
            (F, P) filter after this frame
        """
        y = np.asarray(mixture, dtype=np.complex128)
        s = np.asarray(target_estimate, dtype=np.complex128)
        if y.shape != self._shape or s.shape != (self._shape[1],):
            raise ValueError(
                f"frame shapes {mixture.shape}/{s.shape} do not match state {self._shape}"
            )
        # a non-finite value anywhere in y or s reaches e, even against w = 0
        e = s - np.add.reduce(self._w.conj() * y, axis=0)
        if not np.isfinite(e).all():
            raise ValueError("non-finite values in beamformer update")
        self._rls_update(y, e)
        if self._t % self.update_stride == 0:
            self._filter = self._w.T
        self._t += 1
        return self._filter

    def _rls_update(self, y: np.ndarray, e: np.ndarray):
        """One RLS step on the (P, P, F) inverse and the (P, F) filter,
        given the a-priori error ``e = s - w^H y``."""
        inv, tmp = self._inv, self._tmp
        if self.forgetting != 1.0:
            real = inv.view(np.float64)  # real divide: complex / real scalar is ~3x slower
            real /= self.forgetting
        np.multiply(inv, y, out=tmp)
        py = np.add.reduce(tmp, axis=1)  # P y, (P, F)
        den = 1.0 + np.add.reduce((y.conj() * py).real, axis=0)
        if den.min() <= 0.0:
            raise BeamformerStateError(
                "RLS denominator <= 0; inverse is no longer positive-definite"
            )
        # rebound, not updated in place, so a filter already returned stays fixed
        self._w = self._w + py * (e.conj() / den)
        u = py * (1.0 / np.sqrt(den))
        inv -= np.einsum("pf,qf->pqf", u, u.conj(), out=tmp)
