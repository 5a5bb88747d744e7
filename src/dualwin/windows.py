"""Analysis/synthesis window construction for dual-window overlap-add.

A window is a read-only float64 ``np.ndarray`` whose length comes from a
:class:`~dualwin.framing.FrameParams`: the analysis window ``g`` has
``iws`` samples, the synthesis window ``l`` has ``ows``. ``FrameParams``
checks that geometry once; the functions here check only the window's
values and the family's own rules.

Four analysis window families are supported: square-root Hann, asymmetric
square-root Hann, rectangular, and Tukey with an N/16 taper at each end.
For any analysis window ``g`` of length ``N = iws``, the synthesis window
``l`` of length ``A = ows`` with hop ``B`` is derived from the last ``A``
samples of ``g``::

    l[n] = g[N-A+n] / sum_{k=0}^{A/B-1} g[N-A+(n mod B)+k*B]**2

which makes the overlap-added window products sum to exactly one at every
steady-state output position, i.e. the analysis/synthesis pair achieves
perfect reconstruction for any analysis window whose hop-aligned comb sums
are nonzero (the low-delay design of Mauler & Martin, EUSIPCO 2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .framing import FrameParams

WINDOW_NAMES = ("sqrthann", "asqrthann", "rect", "tukey")


@dataclass(frozen=True)
class WindowKind:
    """Window family selector: ``name``, one of :data:`WINDOW_NAMES`, is the
    only setting. Tukey tapers a fixed N/16 at each end (1 ms of a 16 ms
    window), and the synthesis window follows from the frame geometry."""

    name: str

    def __post_init__(self):
        if self.name not in WINDOW_NAMES:
            raise ValueError(
                f"unknown window kind {self.name!r}, expected one of {WINDOW_NAMES}"
            )


SQRT_HANN = WindowKind("sqrthann")
ASQRT_HANN = WindowKind("asqrthann")
RECT = WindowKind("rect")
TUKEY = WindowKind("tukey")


def _sqrt_hann(m: int) -> np.ndarray:
    # periodic (DFT-even) convention: sqrt(0.5 - 0.5*cos(2*pi*n/m)) = sin(pi*n/m)
    return np.sin(np.pi * np.arange(m) / m)


def _tukey(n_samples: int) -> np.ndarray:
    # three-branch definition; tapering covers the first and last N/16 samples
    a = n_samples / 16
    n = np.arange(n_samples)
    g = np.ones(n_samples)
    left = n <= a
    g[left] = 0.5 - 0.5 * np.cos(np.pi * n[left] / a)
    right = n >= n_samples - a
    g[right] = 0.5 - 0.5 * np.cos(np.pi * (n_samples - n[right]) / a)
    return g


def _asqrt_hann(n_samples: int, hop: int) -> np.ndarray:
    # Left part: first half of a sqrt-Hann of length 2*(N-h); right part:
    # second half of a sqrt-Hann one hop long (h = hop/2). For N=256,
    # hop=32 this is the 240+16 split of a 30 ms and a 2 ms sqrt-Hann
    # at 16 kHz. h < N holds because hop <= ows <= iws.
    if hop % 2 != 0:
        raise ValueError(f"asqrthann requires an even hop >= 2, got {hop}")
    h = hop // 2
    left = _sqrt_hann(2 * (n_samples - h))[: n_samples - h]
    right = _sqrt_hann(2 * h)[h:]
    return np.concatenate([left, right])


def make_analysis_window(kind: WindowKind, params: FrameParams) -> np.ndarray:
    """The ``params.iws``-sample analysis window of family ``kind``.

    ``asqrthann`` also reads ``params.hop``: its two half-window lengths
    depend on it, and it needs an even hop.
    """
    n = params.iws
    if kind.name == "rect":
        g = np.ones(n)
    elif kind.name == "sqrthann":
        g = _sqrt_hann(n)
    elif kind.name == "tukey":
        g = _tukey(n)
    else:
        g = _asqrt_hann(n, params.hop)
    g.setflags(write=False)
    return g


def make_synthesis_window(g: np.ndarray, params: FrameParams) -> np.ndarray:
    """The ``params.ows``-sample perfect-reconstruction synthesis window
    for the analysis window ``g``, at hop ``params.hop``.

    Raises
    ------
    ValueError
        If the analysis window vanishes over an entire hop-aligned comb,
        so a denominator is zero.
    """
    a, b = params.ows, params.hop
    tail = g[-a:]
    denom = np.sum(tail.reshape(a // b, b) ** 2, axis=0)
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        raise ValueError(
            f"analysis window sums to zero over the hop comb at sample "
            f"index {zero[0]}; no perfect-reconstruction synthesis window "
            f"exists"
        )
    l = tail / denom[np.arange(a) % b]
    l.setflags(write=False)
    return l


def peak_gain(l: np.ndarray) -> float:
    """max|l|, the most synthesis amplifies a sample (and its estimate error)
    of a frame's tail; large where ``ows`` equals ``hop`` and ``l`` is 1/g."""
    return float(np.max(np.abs(l)))


def verify_cola(g: np.ndarray, l: np.ndarray, params: FrameParams) -> float:
    """Residual of the constant-overlap-add check for a window pair.

    Routes the analysis window through a forward/inverse DFT of size
    ``params.n_dft`` (so right zero-padding is part of what is checked),
    forms the overlap-added products of its last ``ows`` samples with the
    synthesis window, and returns the maximum deviation from one over all
    steady-state output positions. Matched pairs built with
    :func:`make_synthesis_window` sit at double-precision rounding level;
    mismatched pairs are orders of magnitude above it.
    """
    iws, a, b = params.iws, params.ows, params.hop
    g_round = np.fft.irfft(np.fft.rfft(g, params.n_dft), params.n_dft)[iws - a : iws]
    sums = (g_round * l).reshape(a // b, b).sum(axis=0)
    return float(np.max(np.abs(sums - 1.0)))
