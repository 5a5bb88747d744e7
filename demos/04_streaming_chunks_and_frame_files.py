"""
Chunked streaming and precomputed estimate files
================================================

A Session buffers internally, so feeding audio in arbitrary chunk sizes
(single samples, odd blocks, everything at once) produces output
bit-identical to run_pipeline, which feeds 32 hops per push. Estimates can
also be produced offline, saved to a frame file, and replayed through the
same pipeline.
"""

import tempfile

import numpy as np

from dualwin import EstimatorKind, FrameParams, PipelineConfig, Session, TUKEY, run_pipeline, si_sdr
from dualwin.estimators import save_frame_file
from dualwin.framing import SignalFrames, build_windows
from dualwin.simulate import array_geometry, spatialize

params = FrameParams()
g, l = build_windows(TUKEY, params)
rng = np.random.default_rng(2)

# ---------------------------------------------------------------------------
# Chunking invariance: any partition of the input yields the same output.
x = rng.standard_normal((2, 6400))
ref = rng.standard_normal(6400)
cfg = PipelineConfig(stage1=EstimatorKind("oracle_mag_mask"), beamformer="woodbury",
                     stage2=EstimatorKind("passthrough", source="beamformer"))
whole, _ = run_pipeline(cfg, x, ref)
session = Session(cfg, channels=2, reference=ref, mixture=x)
parts = []
pos = 0
while pos < x.shape[1]:
    step = int(rng.integers(1, 101))
    parts.append(session.push(x[:, pos : pos + step]))
    pos += step
parts.append(session.flush())
session.close()
chunked = np.concatenate(parts)[: len(whole)]
print(f"random chunking vs run_pipeline: {session.frames} frames, "
      f"bit-identical={np.array_equal(chunked, whole)}")

# ---------------------------------------------------------------------------
# Frame files: run an estimator offline, save its frames, replay them as a
# pipeline stage. Here the "estimate" is simply the clean target spectrum.
src = np.fft.irfft(np.fft.rfft(rng.standard_normal(6400))
                   * (np.fft.rfftfreq(6400) < 0.4), 6400)
clean_image = spatialize(src, 1.1, array_geometry(4, 0.2), params.sample_rate)
mixture = clean_image + 0.5 * rng.standard_normal(clean_image.shape)
reference = clean_image[0]

# The file holds the flush frames too, which release the last hop of samples.
target = SignalFrames(reference, g, params, flush=True)
with tempfile.NamedTemporaryFile(suffix=".npz") as fh:
    save_frame_file(fh.name, target.block(0, len(target))[:, 0], params)
    cfg = PipelineConfig(stage1=EstimatorKind("file", path=fh.name))
    enhanced, report = run_pipeline(cfg, mixture)

print(f"file-backed replay: SI-SDR vs the saved target "
      f"{si_sdr(enhanced, reference):+.1f} dB "
      f"({report.frames} frames)")
print("\nan external process can do the same live over stdin/stdout; see the")
print("estimator module docs for the length-prefixed float32 frame protocol")
