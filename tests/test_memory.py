"""Peak memory of the whole-signal set-up paths, read with tracemalloc.

numpy reports its array allocations to tracemalloc, so these peaks are
deterministic. No test here times anything.
"""

import tracemalloc

import numpy as np

from dualwin.estimators import _mask_table
from dualwin.framing import FrameParams, analyze, build_windows
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
