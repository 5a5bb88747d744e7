"""
Dual-window analysis/synthesis and perfect reconstruction
=========================================================

A 16 ms analysis window gives the STFT its frequency resolution, but only
the last 4 ms of each inverted frame are overlap-added, so the chain's
algorithmic latency is 4 ms, not 16. This script builds the four analysis
window families, derives their perfect-reconstruction synthesis windows,
and round-trips noise through the full streaming path.
"""

import numpy as np

from dualwin import (
    ASQRT_HANN,
    RECT,
    SQRT_HANN,
    TUKEY,
    FrameParams,
    PipelineConfig,
    build_windows,
    run_pipeline,
    verify_cola,
)

params = FrameParams()  # 16 kHz, iws=256, ows=64, hop=32, 256-pt DFT
kinds = [SQRT_HANN, ASQRT_HANN, RECT, TUKEY]

# ---------------------------------------------------------------------------
# Every analysis window gets a synthesis partner computed from its last
# 64 samples; the overlap-added window products then sum to exactly one.
print("COLA residual per window family (matched pairs):")
for kind in kinds:
    g, l = build_windows(kind, params)
    print(f"  {kind.name:10s} {verify_cola(g, l, params):.3e}")

# A mismatched pair is loud -- the check genuinely discriminates.
g_tukey = build_windows(TUKEY, params)[0]
l_rect = build_windows(RECT, params)[1]
print(f"  mismatched (tukey analysis, rect-derived synthesis): "
      f"{verify_cola(g_tukey, l_rect, params):.3e}")

# ---------------------------------------------------------------------------
# Round trip: the streaming chain with a passthrough stage (analysis, one
# frame per hop, synthesis, flush) reconstructs the signal to double
# precision for every family.
rng = np.random.default_rng(0)
x = rng.standard_normal(params.sample_rate)  # one second of noise
print("\nround-trip relative L2 error:")
for kind in kinds:
    y, _ = run_pipeline(PipelineConfig(params=params, window=kind), x)
    print(f"  {kind.name:10s} {np.linalg.norm(y - x) / np.linalg.norm(x):.3e}")

# ---------------------------------------------------------------------------
# Optional: plot the window shapes.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
    for kind in kinds:
        g, l = build_windows(kind, params)
        axes[0].plot(g, label=kind.name)
        axes[1].plot(np.arange(params.iws - params.ows, params.iws), l,
                     label=kind.name)
    axes[0].set_title("analysis windows (16 ms)")
    axes[1].set_title("synthesis windows (last 4 ms)")
    for ax in axes:
        ax.legend(loc="upper left", fontsize=8)
    fig.tight_layout()
    fig.savefig("windows.png", dpi=120)
    print("\nwrote windows.png")
except ImportError:
    print("\n(matplotlib not available, skipping the plot)")
