"""Analysis/synthesis window construction for dual-window overlap-add.

Four analysis window families are supported: square-root Hann, asymmetric
square-root Hann, rectangular, and Tukey. For any analysis window ``g`` of
length ``N``, a synthesis window ``l`` of length ``A`` (the output window
size) with hop ``B`` is derived from the last ``A`` samples of ``g``::

    l[n] = g[N-A+n] / sum_{k=0}^{A/B-1} g[N-A+(n mod B)+k*B]**2

which makes the overlap-added window products sum to exactly one at every
steady-state output position, i.e. the analysis/synthesis pair achieves
perfect reconstruction for any analysis window whose hop-aligned comb sums
are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WINDOW_NAMES = ("sqrthann", "asqrthann", "rect", "tukey")


@dataclass(frozen=True)
class WindowKind:
    """Window family selector.

    Parameters
    ----------
    name : str
        One of ``"sqrthann"``, ``"asqrthann"``, ``"rect"``, ``"tukey"``.
    tukey_alpha : float
        Taper fraction for the Tukey window, in (0, 0.5]. Ignored for the
        other families. The default 1/16 tapers 1 ms on each end of a
        16 ms window.
    """

    name: str
    tukey_alpha: float = 1.0 / 16.0

    def __post_init__(self):
        if self.name not in WINDOW_NAMES:
            raise ValueError(
                f"unknown window kind {self.name!r}, expected one of {WINDOW_NAMES}"
            )
        if self.name == "tukey" and not 0.0 < self.tukey_alpha <= 0.5:
            raise ValueError(
                f"tukey_alpha must be in (0, 0.5], got {self.tukey_alpha}"
            )


SQRT_HANN = WindowKind("sqrthann")
ASQRT_HANN = WindowKind("asqrthann")
RECT = WindowKind("rect")
TUKEY = WindowKind("tukey")


@dataclass(frozen=True)
class AnalysisWindow:
    """Real-valued analysis taper of length ``n``."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class SynthesisWindow:
    """Synthesis taper of length ``a`` paired with overlap-add hop ``hop``."""

    samples: np.ndarray
    hop: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.hop <= 0 or len(samples) % self.hop != 0:
            raise ValueError(
                f"window length {len(samples)} must be a positive multiple "
                f"of hop {self.hop}"
            )

    @property
    def a(self) -> int:
        return len(self.samples)


def _sqrt_hann(m: int) -> np.ndarray:
    # periodic (DFT-even) convention: sqrt(0.5 - 0.5*cos(2*pi*n/m)) = sin(pi*n/m)
    return np.sin(np.pi * np.arange(m) / m)


def _tukey(n_samples: int, alpha: float) -> np.ndarray:
    # three-branch definition; tapering covers the first and last alpha*N samples
    a = alpha * n_samples
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
    # at 16 kHz.
    if hop is None:
        raise ValueError("asqrthann window requires the hop size")
    if hop < 2 or hop % 2 != 0:
        raise ValueError(f"asqrthann requires an even hop >= 2, got {hop}")
    h = hop // 2
    if h >= n_samples:
        raise ValueError(
            f"asqrthann segment of {h} samples does not fit a "
            f"{n_samples}-sample window"
        )
    left = _sqrt_hann(2 * (n_samples - h))[: n_samples - h]
    right = _sqrt_hann(2 * h)[h:]
    return np.concatenate([left, right])


def make_analysis_window(
    kind: WindowKind, n_samples: int, hop: int | None = None
) -> AnalysisWindow:
    """Construct an analysis window.

    Parameters
    ----------
    kind : WindowKind
        Window family (and Tukey taper fraction).
    n_samples : int
        Window length in samples.
    hop : int, optional
        Hop size in samples. Required for ``asqrthann``, whose two
        constituent half-window lengths depend on it; ignored otherwise.

    Returns
    -------
    AnalysisWindow
    """
    if n_samples <= 0:
        raise ValueError(f"window length must be positive, got {n_samples}")
    if kind.name == "rect":
        g = np.ones(n_samples)
    elif kind.name == "sqrthann":
        g = _sqrt_hann(n_samples)
    elif kind.name == "tukey":
        g = _tukey(n_samples, kind.tukey_alpha)
    else:
        g = _asqrt_hann(n_samples, hop)
    return AnalysisWindow(g)


def make_synthesis_window(
    g: AnalysisWindow, a_samples: int, b_samples: int
) -> SynthesisWindow:
    """Derive the perfect-reconstruction synthesis window for ``g``.

    Parameters
    ----------
    g : AnalysisWindow
        Analysis window of length ``N``.
    a_samples : int
        Output window size ``A`` (length of the synthesis window), a
        multiple of ``b_samples`` and at most ``N``.
    b_samples : int
        Hop size ``B``.

    Returns
    -------
    SynthesisWindow

    Raises
    ------
    ValueError
        If the sizes are inconsistent, or the analysis window vanishes
        over an entire hop-aligned comb so a denominator is zero.
    """
    if b_samples <= 0:
        raise ValueError(f"hop must be positive, got {b_samples}")
    if a_samples <= 0 or a_samples % b_samples != 0:
        raise ValueError(
            f"output window size {a_samples} must be a positive multiple "
            f"of hop {b_samples}"
        )
    if a_samples > g.n:
        raise ValueError(
            f"output window size {a_samples} exceeds analysis window "
            f"length {g.n}"
        )
    tail = g.samples[g.n - a_samples :]
    comb = tail.reshape(a_samples // b_samples, b_samples)
    denom = np.sum(comb**2, axis=0)
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        raise ValueError(
            f"analysis window sums to zero over the hop comb at sample "
            f"index {zero[0]}; no perfect-reconstruction synthesis window "
            f"exists"
        )
    l = tail / denom[np.arange(a_samples) % b_samples]
    return SynthesisWindow(l, b_samples)


def verify_cola(g: AnalysisWindow, l: SynthesisWindow, n_dft: int) -> float:
    """Residual of the constant-overlap-add check for a window pair.

    Routes the analysis window through a forward/inverse DFT of size
    ``n_dft`` (so right zero-padding is part of what is checked), forms the
    overlap-added products of the last ``A`` analysis samples with the
    synthesis window, and returns the maximum deviation from one over all
    steady-state output positions. Matched pairs built with
    :func:`make_synthesis_window` sit at double-precision rounding level;
    mismatched pairs are orders of magnitude above it.
    """
    if n_dft < g.n:
        raise ValueError(f"n_dft {n_dft} smaller than window length {g.n}")
    a, b = l.a, l.hop
    if a > g.n:
        raise ValueError(
            f"synthesis window length {a} exceeds analysis window length {g.n}"
        )
    g_round = np.fft.irfft(np.fft.rfft(g.samples, n_dft), n_dft)[: g.n]
    products = g_round[g.n - a :] * l.samples
    sums = products.reshape(a // b, b).sum(axis=0)
    return float(np.max(np.abs(sums - 1.0)))
