"""Synthetic anechoic multichannel scenes for desk-scale verification.

Sources are far-field plane waves: each microphone of a uniform circular
array receives the source delayed by ``-(r/c) * cos(azimuth - mic_angle)``
relative to the array center (c = ``SPEED_OF_SOUND``), realized with a
``DELAY_TAPS``-tap Hann-windowed-sinc fractional delay (interpolation error
well below test tolerances for band-limited material). No room acoustics:
the direct path is the whole transfer function, and the target's
direct-path signal at the reference microphone doubles as the metric
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_SOUND = 343.0
ACTIVE_FLOOR_DBFS = -60.0
DELAY_TAPS = 64


def array_geometry(channels: int, diameter: float) -> np.ndarray:
    """Uniform circular array: mic p at angle 2*pi*p/P, radius diameter/2.
    Returns the read-only (P, 2) xy positions in meters."""
    if channels < 1:
        raise ValueError(f"need at least one microphone, got {channels}")
    if diameter <= 0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    angles = 2.0 * np.pi * np.arange(channels) / channels
    r = diameter / 2.0
    positions = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
    positions.setflags(write=False)
    return positions


def fractional_delay(signal: np.ndarray, delay: float) -> np.ndarray:
    """Delay a signal by a non-negative, possibly fractional number of samples.

    ``DELAY_TAPS``-tap Hann-windowed sinc interpolation; output has the
    same length as the input (content shifted right, zero-filled at the head).
    """
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    x = np.asarray(signal, dtype=np.float64)
    d_int = int(np.floor(delay))
    d_frac = delay - d_int
    half = DELAY_TAPS // 2
    t = np.arange(DELAY_TAPS) - (half - 1) - d_frac
    kernel = np.sinc(t) * (0.5 + 0.5 * np.cos(np.pi * t / half))
    full = np.convolve(x, kernel)
    out = np.zeros(len(x))
    src_start = half - 1 - d_int  # index of output sample 0 in `full`
    lo = max(0, -src_start)
    hi = min(len(x), len(full) - src_start)
    if hi > lo:
        out[lo:hi] = full[src_start + lo : src_start + hi]
    return out


def spatialize(
    source: np.ndarray, azimuth: float, positions: np.ndarray, sample_rate: int
) -> np.ndarray:
    """Far-field plane-wave rendering of a source onto the array.

    ``positions`` are the (P, 2) mic positions of :func:`array_geometry`.
    Returns a (P, n) array. Per-channel delays are referenced to the array
    center and offset so the earliest channel has zero delay; inter-channel
    delays are what matters for beamforming.
    """
    source = np.asarray(source, dtype=np.float64)
    if not np.all(np.isfinite(source)):
        raise ValueError("source contains non-finite samples")
    mic_angles = np.arctan2(positions[:, 1], positions[:, 0])
    radii = np.hypot(positions[:, 0], positions[:, 1])
    tau = -(radii / SPEED_OF_SOUND) * np.cos(azimuth - mic_angles)
    delays = (tau - tau.min()) * sample_rate
    return np.stack([fractional_delay(source, d) for d in delays])


def active_power(signal: np.ndarray) -> float:
    """Mean-square power over samples above the activity floor.

    Samples at or below ``ACTIVE_FLOOR_DBFS`` (relative to full scale 1.0)
    are treated as silence and excluded, so padded or gappy clips are scaled
    by their active content.
    """
    x = np.asarray(signal, dtype=np.float64)
    active = np.abs(x) > 10.0 ** (ACTIVE_FLOOR_DBFS / 20.0)
    if not np.any(active):
        return 0.0
    return float(np.mean(x[active] ** 2))


@dataclass(frozen=True)
class SourceInfo:
    """Provenance of one spatialized source in a scene."""

    role: str  # "target" or "noise"
    azimuth: float
    level_db: float = 0.0


@dataclass
class Scene:
    """A simulated mixture with its direct-path metric reference.

    ``mixture`` is (P, n); ``target_direct`` is the target's direct-path
    signal at ``ref_mic`` (channel ``ref_mic`` of the spatialized target).
    ``noise_scale`` is the factor applied to the summed noises to hit
    ``snr_db``, kept so the mixture can be re-assembled exactly.
    """

    mixture: np.ndarray
    target_direct: np.ndarray
    sample_rate: int
    ref_mic: int
    snr_db: float
    noise_scale: float
    seed: int | None = None
    sources: list[SourceInfo] = field(default_factory=list)


def mix(
    target: np.ndarray,
    noises: list[np.ndarray],
    snr_db: float,
    sample_rate: int,
    ref_mic: int = 0,
    seed: int | None = None,
    sources: list[SourceInfo] | None = None,
) -> Scene:
    """Combine a spatialized target with spatialized noises at a given SNR.

    The summed noise is scaled so the power ratio between the target and
    the noise at the reference microphone is exactly ``snr_db``; the
    mixture is ``target + scale * sum(noises)``. ``ValueError`` if that
    power ratio or scale does not fit a float.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2:
        raise ValueError("target must be (channels, samples)")
    if not noises:
        raise ValueError("at least one noise source is required")
    if not 0 <= ref_mic < len(target):
        raise ValueError(f"ref_mic {ref_mic} out of range for {len(target)} channels")
    stacked = np.stack([np.asarray(n, dtype=np.float64) for n in noises])
    if stacked.shape[1:] != target.shape:
        raise ValueError(
            f"noise shape {stacked.shape[1:]} does not match target {target.shape}"
        )
    noise_sum = np.sum(stacked, axis=0)
    p_target = float(np.mean(target[ref_mic] ** 2))
    p_noise = float(np.mean(noise_sum[ref_mic] ** 2))
    if p_target == 0.0:
        raise ValueError("target has zero power at the reference microphone")
    if p_noise == 0.0:
        raise ValueError("summed noise has zero power at the reference microphone")
    try:
        scale = float(np.sqrt(p_target / (p_noise * 10.0 ** (snr_db / 10.0))))
    except (OverflowError, ZeroDivisionError):  # 10 ** x overflowed or underflowed to 0
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"snr_db {snr_db} gives a noise power ratio out of float range")
    return Scene(
        mixture=target + scale * noise_sum,
        target_direct=target[ref_mic].copy(),
        sample_rate=sample_rate,
        ref_mic=ref_mic,
        snr_db=snr_db,
        noise_scale=scale,
        seed=seed,
        sources=list(sources) if sources else [],
    )


def _bandlimited_noise(
    rng: np.random.Generator, n: int, sample_rate: int, lo: float, hi: float
) -> np.ndarray:
    x = rng.standard_normal(n)
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    outside = (freqs < lo) | (freqs > hi)
    if outside.all():  # the signal would be all zeros, with no power to normalize by
        raise ValueError(
            f"a {n}-sample ({n / sample_rate:g} s) signal at {sample_rate} Hz "
            f"has no frequency bin in the source band {lo:g}-{hi:g} Hz"
        )
    spectrum[outside] = 0.0
    x = np.fft.irfft(spectrum, n)
    return x / np.sqrt(np.mean(x**2))


def scene_samples(duration_s: float, sample_rate: int) -> int:
    """Samples per channel of a ``duration_s`` scene at ``sample_rate``;
    ``ValueError`` if that is none, or more than a float can count."""
    samples = duration_s * sample_rate
    if not math.isfinite(samples):
        raise ValueError(f"a duration of {duration_s} s at {sample_rate} Hz gives {samples} samples")
    n = round(samples)
    if n < 1:
        raise ValueError(f"a duration of {duration_s} s at {sample_rate} Hz gives no samples")
    return n


def make_scene(
    seed: int,
    channels: int = 6,
    diameter: float = 0.20,
    duration_s: float = 1.0,
    snr_db: float = 0.0,
    n_noises: int = 2,
    sample_rate: int = 16000,
    ref_mic: int = 0,
) -> Scene:
    """Deterministic scene: one band-limited target plus point noises.

    Azimuths and noise levels are drawn from ``seed`` alone; the same seed
    yields a bit-identical scene. The first noise acts as background, the
    rest as foregrounds with active-power levels drawn from [-3, 9] dB
    relative to it. Sources are band-limited to 0.45 * sample_rate so the
    fractional-delay interpolation error stays far below test tolerances.
    """
    if n_noises < 1:
        raise ValueError(f"need at least one noise source, got {n_noises}")
    rng = np.random.default_rng(seed)
    n = scene_samples(duration_s, sample_rate)
    geom = array_geometry(channels, diameter)
    hi = 0.45 * sample_rate

    target_az = float(rng.uniform(0.0, 2.0 * np.pi))
    target = _bandlimited_noise(rng, n, sample_rate, 200.0, hi)
    # slow amplitude modulation, vaguely speech-like activity
    envelope = 0.4 + 0.6 * (0.5 + 0.5 * np.sin(2.0 * np.pi * 3.0 * np.arange(n) / sample_rate + rng.uniform(0, 2 * np.pi)))
    target = target * envelope
    target_img = spatialize(target, target_az, geom, sample_rate)

    sources = [SourceInfo("target", target_az)]
    noises = []
    bg_power = None
    for i in range(n_noises):
        az = float(rng.uniform(0.0, 2.0 * np.pi))
        level_db = 0.0 if i == 0 else float(rng.uniform(-3.0, 9.0))
        clip = _bandlimited_noise(rng, n, sample_rate, 50.0, hi)
        p = active_power(clip)
        if bg_power is None:
            bg_power = p
        else:
            clip = clip * np.sqrt(bg_power / p * 10.0 ** (level_db / 10.0))
        noises.append(spatialize(clip, az, geom, sample_rate))
        sources.append(SourceInfo("noise", az, level_db))

    return mix(
        target_img,
        noises,
        snr_db,
        sample_rate,
        ref_mic=ref_mic,
        seed=seed,
        sources=sources,
    )
