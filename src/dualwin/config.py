"""Flat key=value run configuration for the ``enhance`` command.

One ``key = value`` pair per line, ``#`` starts a comment. Sizes carry an
explicit unit suffix: ``iws_ms = 16`` or ``iws_samples = 256`` (same for
``ows`` and ``hop``); setting both units for one size is an error. Example::

    sample_rate = 16000
    window = tukey
    iws_ms = 16
    ows_ms = 4
    hop_ms = 2
    n_dft = 256
    frames_ahead = 0
    stage1 = oracle_mag_mask
    beamformer = woodbury
    stage2 = passthrough:beamformer
    ref_mic = 0
    mixture = mixture.wav
    reference = reference.wav
    output = enhanced.wav
    report = report.json

Estimator values: ``passthrough[:source]`` (source one of
mixture/stage1/beamformer; the mixture at ``ref_mic``), ``oracle_complex``,
``oracle_mag_mask``, ``file:PATH``, ``external:COMMAND``; ``stage2`` may be
``none``. At ``frames_ahead`` > 0 the last stage must predict: an oracle, a
frame file or an external estimator. ``output`` is written as a 32-bit
float WAV; the mixture and reference may also be 16- or 24-bit PCM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import EstimatorKind
from .framing import FrameParams
from .pipeline import ConfigError, PipelineConfig
from .windows import WindowKind

@dataclass
class EnhanceJob:
    """A parsed enhance run: pipeline settings plus file paths."""

    pipeline: PipelineConfig
    mixture_path: str
    output_path: str
    reference_path: str | None = None
    report_path: str | None = None


def parse_pairs(text: str) -> dict[str, str]:
    """Split config text into raw key/value strings; duplicates are errors."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip("\"'")
    return pairs


def _int(pairs, key, default=None, minimum=None):
    if key not in pairs:
        return default
    text = pairs.pop(key)
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _float(pairs, key, default=None):
    if key not in pairs:
        return default
    text = pairs.pop(key)
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _size_samples(pairs, name, sample_rate):
    ms_key, smp_key = f"{name}_ms", f"{name}_samples"
    if ms_key in pairs and smp_key in pairs:
        raise ConfigError(f"{ms_key} and {smp_key} are both set; give exactly one")
    if smp_key in pairs:
        return _int(pairs, smp_key)
    if ms_key in pairs:
        ms = _float(pairs, ms_key)
        samples = ms * sample_rate / 1000.0
        rounded = int(round(samples))
        if abs(samples - rounded) > 1e-6:
            raise ConfigError(
                f"{ms_key}: {ms} ms is not a whole number of samples at "
                f"{sample_rate} Hz"
            )
        return rounded
    return getattr(FrameParams, name)


def _estimator(value: str, key: str) -> EstimatorKind | None:
    value = value.strip()
    if value.lower() in ("", "none", "off"):
        return None
    head, _, rest = value.partition(":")
    try:
        if value.startswith("file:"):
            return EstimatorKind("file", path=rest.strip())
        if value.startswith("external:"):
            return EstimatorKind("external", command=rest.strip())
        if head == "passthrough":
            return EstimatorKind("passthrough", source=rest or "mixture")
        if value in ("oracle_complex", "oracle_mag_mask"):
            return EstimatorKind(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"{key}: unknown estimator {value!r}")


def build_job(pairs: dict[str, str]) -> EnhanceJob:
    """Interpret raw pairs into an :class:`EnhanceJob`, validating fields.

    Each read takes its key out of a copy of ``pairs``, so a key is known
    exactly when it is read: any key left over is refused, after every value
    read has been checked. The caller's dict is not modified.
    """
    for key in ("mixture", "output"):
        if key not in pairs:
            raise ConfigError(f"{key}: required key is missing")
    pairs = dict(pairs)

    # sample_rate converts ms to samples before FrameParams can check it
    sample_rate = _int(pairs, "sample_rate", default=FrameParams.sample_rate, minimum=1)
    try:
        params = FrameParams(
            sample_rate=sample_rate,
            iws=_size_samples(pairs, "iws", sample_rate),
            ows=_size_samples(pairs, "ows", sample_rate),
            hop=_size_samples(pairs, "hop", sample_rate),
            n_dft=_int(pairs, "n_dft", default=FrameParams.n_dft),
            frames_ahead=_int(pairs, "frames_ahead", default=FrameParams.frames_ahead),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        window = WindowKind(pairs.pop("window", PipelineConfig.window.name))
    except ValueError as exc:
        raise ConfigError(f"window: {exc}") from None

    beamformer = pairs.pop("beamformer", "off").lower()
    if beamformer in ("off", "none", ""):
        beamformer = None
    stage1 = _estimator(pairs.pop("stage1", "passthrough"), "stage1")
    if stage1 is None:
        raise ConfigError("stage1: an estimator is required")
    stage2 = _estimator(pairs.pop("stage2", "none"), "stage2")

    pipeline = PipelineConfig(
        params=params,
        window=window,
        stage1=stage1,
        beamformer=beamformer,
        stage2=stage2,
        ref_mic=_int(pairs, "ref_mic", default=PipelineConfig.ref_mic),
        loading=_float(pairs, "loading", default=PipelineConfig.loading),
        forgetting=_float(pairs, "forgetting", default=PipelineConfig.forgetting),
    )
    job = EnhanceJob(
        pipeline=pipeline,
        mixture_path=pairs.pop("mixture"),
        output_path=pairs.pop("output"),
        reference_path=pairs.pop("reference", None),
        report_path=pairs.pop("report", None),
    )
    if pairs:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(pairs))}")
    return job


def load_job(path) -> EnhanceJob:
    with open(path, "r", encoding="utf-8") as fh:
        return build_job(parse_pairs(fh.read()))
