"""Per-frequency multi-channel Wiener filtering (MCWF).

The filter for reference channel q minimizes, per frequency f,
``sum_t |S_q(t,f) - w(f)^H Y(t,f)|^2`` given a target estimate S_q. The
offline solution is ``w = Phi_yy^{-1} phi_ys`` with the mixture covariance
``Phi_yy = sum_t Y Y^H`` and the cross column ``phi_ys = sum_t Y S_q^*``
(the q-th column of the full cross matrix, which is never materialized).
The frame-online variant runs the exponentially weighted recursive least
squares (RLS) recursion: it keeps the covariance inverse and the
conjugate filter stacked in one array and updates both with one rank-1
Woodbury step per frame, re-symmetrizing the inverse every 32 frames, so no
per-frame matrix inversion or solve is needed.

All-zero initial statistics would be singular, so the recursion starts
from a small diagonal loading eps*I (and the offline solver adds the same
loading), which keeps online and offline answers identical for the same
data. Shapes throughout: T frames, P channels, F frequency bins; mixtures
are (P, F) per frame or (T, P, F) as spectrograms, filters are (F, P).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_LOADING = 1e-6
MODES = ("woodbury",)


class BeamformerStateError(RuntimeError):
    """Online state is numerically broken: the RLS inverse lost positive-definiteness
    or the recursion overflowed."""


def _check_denominator(den: np.ndarray):
    """Refuse an RLS denominator ``1 + y^H P y`` that is not positive and finite, before
    any write: 1 / sqrt(inf) would zero the update and drop the frame unseen."""
    if not np.minimum.reduce(den) > 0.0:  # NaN fails this too; 0.95 us at 129 bins, den.min() 1.04
        raise BeamformerStateError("RLS denominator is not positive; inverse is no longer positive-definite")
    if np.maximum.reduce(den) == math.inf:
        raise BeamformerStateError("RLS denominator overflowed")


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
    Filter Theory*, RLS chapter). Per frame, with mixture ``y``, target
    estimate ``s``, forgetting factor ``lam``, inverse covariance ``P``
    (starting at I/loading) and filter ``w`` (starting at 0)::

        P /= lam
        den = 1 + y^H P y
        e = s - w^H y              (a-priori error)
        w += P y e^* / den
        P -= (P y)(P y)^H / den

    which gives the same filter as re-solving the loaded, discounted normal
    equations every frame.

    ``P /= lam`` discounts the loading along with the data, so under
    ``lam < 1`` a direction the input does not excite (silence, or one
    coherent source) would lose all of its regularization until ``P``
    overflows or loses definiteness. So after each such frame a second
    rank-1 step, at forgetting 1 and with target 0, adds the
    pseudo-observation ``u = sqrt((1 - lam) * loading * channels) e_k`` with
    ``k = t mod channels``. So the loading lost over ``channels`` frames is
    put back, one channel a frame, and the covariance is
    ``Phi_t = lam Phi_{t-1} + y y^H + u u^H``, which holds the loading near
    ``loading * I`` however long the input stays silent (dynamic
    regularization: S. L. Gay, "Dynamically regularized fast RLS
    with application to echo cancellation", ICASSP 1996). At ``lam = 1``
    nothing is discounted and the step is skipped.

    The state is one stacked complex array ``A`` (``_state``), (P+1, P, F),
    frequency-last so that every numpy op streams over the contiguous bins:
    rows 0..P-1 hold ``P`` and row P holds ``conj(w)``. One broadcast
    multiply by ``y`` and one sum over axis 1 then give ``P y`` and
    ``w^H y`` together, and the two updates are one rank-1 step,
    ``A -= [P y; -e] (P y)^H / den``. numpy's SIMD complex multiply uses
    FMA, so the two triangles of that broadcast outer product come out a
    last bit apart, and the recursion would grow the skew over thousands of
    frames until ``P`` loses definiteness and :class:`BeamformerStateError`
    fires. So every 32 frames (``_SYMMETRIZE_EVERY``) the inverse block is
    replaced by ``(P + P^H) / 2``, which is exactly Hermitian and keeps the
    round-off of conventional RLS bounded (M. Verhaegen, "Round-off error
    propagation in four generally-applicable, recursive, least-squares
    estimation schemes", Automatica 1989).

    Every frame returns a new filter, a fresh array that later frames never
    change. ``forgetting`` < 1 exponentially discounts old frames; the
    default 1.0 is plain accumulation and is what makes the final online
    filter match the offline solution exactly. ``mode`` (only
    ``"woodbury"``), ``update_stride`` (only 1) and ``ref_mic`` (unused) are
    accepted because the benchmark adapter passes them.

    Single-writer; frames must arrive in order. Frequency bins are
    independent, all updates are vectorized over F.
    """

    # Frames between re-symmetrizations of the inverse block, chosen by a
    # sweep on 12000 frames of the 6-mic long-stream scene against the
    # exactly Hermitian einsum recursion: every 32 frames the output stays
    # within 2e-10 of it (relative) at lam = 1, 0.99 and 0.95, every 128
    # drifts to 1.3e-7 at lam = 0.95, and never re-symmetrizing loses
    # definiteness at frame 1296 (lam = 0.99) and 291 (lam = 0.95). At 32
    # the re-symmetrization costs under 1% of an update.
    _SYMMETRIZE_EVERY = 32

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
        # a subnormal loading passes 0 < loading but overflows the initial I/loading
        if not (0.0 < loading < np.inf and math.isfinite(1.0 / float(loading))):
            raise ValueError(f"loading must be finite and > 0, got {loading}")
        if update_stride != 1:
            raise ValueError(f"update_stride must be 1, got {update_stride}")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError(f"forgetting must be in (0, 1], got {forgetting}")
        self.forgetting = forgetting
        self._load = math.sqrt((1.0 - forgetting) * loading * channels)  # the size of u, 0 at lam = 1
        self._state = np.zeros((channels + 1, channels, n_bins), dtype=np.complex128)
        self._state[np.arange(channels), np.arange(channels)] = 1.0 / loading
        self._tmp = np.empty_like(self._state)
        self._t = 0

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
        shape = self._state.shape[1:]  # (P, F)
        if y.shape != shape or s.shape != shape[1:]:
            raise ValueError(
                f"frame shapes {mixture.shape}/{s.shape} do not match state {shape}"
            )
        # at every forgetting: an overflowed state is reported by the RLS
        # step's checks, not by numpy warnings (the errstate costs 1.3-1.7 us
        # of a 43 us update, which perfbench's live_mcwf6 cannot resolve)
        with np.errstate(all="ignore"):
            self._rls_step(y, s)
            if self._load:
                self._load_step(self._t % len(y))
            if (self._t + 1) % self._SYMMETRIZE_EVERY == 0:
                inv = self._state[:-1]
                inv += inv.conj().transpose(1, 0, 2)  # conj() copies, so no aliasing
                inv *= 0.5
        self._t += 1
        return self._state[-1].conj().T  # conj() copies: the returned filter stays fixed

    def _rls_step(self, y: np.ndarray, s: np.ndarray):
        """One RLS step on the stacked (P+1, P, F) state; a frame that
        fails a check leaves the state untouched."""
        state, tmp = self._state, self._tmp
        p = len(y)
        np.multiply(state, y, out=tmp)
        r = np.add.reduce(tmp, axis=1)  # [P y; w^H y], (P+1, F)
        py, neg_e = r[:p], r[p]
        neg_e -= s  # w^H y - s, the negated a-priori error
        # a non-finite value anywhere in y or s reaches e, even against w = 0;
        # with y and s finite, it came from the state
        if not np.isfinite(neg_e).all():
            if np.isfinite(y).all() and np.isfinite(s).all():
                raise BeamformerStateError("non-finite RLS state: the recursion overflowed")
            raise ValueError("non-finite values in beamformer update")
        if self.forgetting != 1.0:
            py /= self.forgetting
        den = 1.0 + np.add.reduce((y.conj() * py).real, axis=0)
        _check_denominator(den)
        if self.forgetting != 1.0:
            real = state[:p].view(np.float64)  # real divide: complex / real scalar is ~3x slower
            real /= self.forgetting
        r *= 1.0 / np.sqrt(den)  # [P y; -e] / sqrt(den)
        state -= np.multiply(r[:, None, :], py.conj(), out=tmp)

    def _load_step(self, k: int):
        """The RLS step, at forgetting 1, on the pseudo-observation
        ``u = _load * e_k`` with target 0. ``P u`` is ``_load`` times column
        k of the inverse rows and ``w^H u`` is ``_load * conj(w_k)``, so
        column k of the stacked state gives both without a multiply-reduce.
        A frame whose loading step fails its check keeps its RLS step."""
        state = self._state
        r = state[:, k] * self._load  # [P u; w^H u] = [P u; -e], a copy
        den = 1.0 + self._load * r[k].real  # 1 + u^H P u
        _check_denominator(den)
        r *= 1.0 / np.sqrt(den)
        state -= np.multiply(r[:, None, :], r[:-1].conj(), out=self._tmp)
