"""Peak memory of the whole-signal set-up paths, read with tracemalloc.

numpy reports its array allocations to tracemalloc, so these peaks are
deterministic. No test here times anything.
"""

import tracemalloc

import numpy as np
import pytest

from dualwin.estimators import EstimatorKind, _mask_table
from dualwin.framing import FrameParams, analyze, build_windows
from dualwin.metrics import _LOSS_STFT, compute_metrics
from dualwin.pipeline import PipelineConfig, Session
from dualwin.simulate import make_scene
from dualwin.windows import TUKEY

MB = 1_000_000
SECONDS = 12


def _traced(fn):
    """``fn()`` and the peak bytes it allocated above what was live at the call."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - start


def test_analyze_peak_is_result_plus_padded_input_plus_one_block():
    params = FrameParams()
    g, _ = build_windows(TUKEY, params)
    x = np.random.default_rng(0).standard_normal(SECONDS * params.sample_rate)
    bins, peak = _traced(lambda: analyze(x, g, params))
    assert bins.shape == (len(x) // params.hop, params.n_bins)
    padded = (len(x) + params.iws - params.hop) * x.itemsize
    assert peak <= bins.nbytes + padded + MB, (peak, bins.nbytes, padded)


def test_mask_table_peak_is_result_plus_two_row_blocks():
    params = FrameParams()
    g, _ = build_windows(TUKEY, params)
    rng = np.random.default_rng(1)
    n = SECONDS * params.sample_rate
    s, y = analyze(rng.standard_normal(n), g, params), analyze(rng.standard_normal(n), g, params)
    table, peak = _traced(lambda: _mask_table(s, y))
    assert table.shape == y.shape
    assert peak <= table.nbytes + MB, (peak, table.nbytes)


@pytest.mark.parametrize("kind, signals", [("oracle_mag_mask", 2), ("oracle_complex", 1)])
def test_oracle_session_set_up_keeps_only_the_primed_signals(kind, signals):
    # the oracle rows are framed in the push that reads them, not tabled at set-up
    params = FrameParams()
    n = SECONDS * params.sample_rate
    rng = np.random.default_rng(2)
    mixture, reference = rng.standard_normal((6, n)), rng.standard_normal(n)
    cfg = PipelineConfig(stage1=EstimatorKind(kind))
    session, peak = _traced(lambda: Session(cfg, 6, reference, mixture))
    session.close()
    primed = signals * (params.iws - params.hop + params.frames_to_release(n) * params.hop) * 8
    assert peak <= primed + MB, (peak, primed)


def test_compute_metrics_peak_is_the_terms_plus_the_primed_pair():
    # the loss STFT is framed a block of rows at a time: no whole (T, 2, F) spectrogram
    _, params = _LOSS_STFT
    n = SECONDS * 16000
    rng = np.random.default_rng(3)
    ref = rng.standard_normal(n)
    est = ref + 0.3 * rng.standard_normal(n)
    _, peak = _traced(lambda: compute_metrics(est, ref))
    terms = 3 * (n // params.hop) * params.n_bins * 8
    primed = 2 * (params.iws - params.hop + n) * 8
    assert peak <= terms + primed + MB, (peak, terms, primed)


def test_make_scene_peak_is_the_source_images_plus_the_noise_sum():
    # the target and noise images, then one running noise sum that becomes the
    # mixture in place: no stack of the noises and no scaled copy of their sum
    scene, peak = _traced(lambda: make_scene(seed=7, channels=24, n_noises=2))
    images = 1 + 2  # the target's and the two noises'
    assert peak <= (images + 1) * scene.mixture.nbytes + MB, (peak, scene.mixture.nbytes)
