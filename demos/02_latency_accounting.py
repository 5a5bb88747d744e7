"""
Algorithmic latency, measured rather than asserted
==================================================

The output window spans ows samples, so a sample at a hop boundary is
released exactly ows samples after it arrived; predicting k frames ahead
moves each synthesis chunk k hops later in its own timeline and shaves
k hops off the latency, down to 0 ms and below. Here we feed a stream one
sample at a time and log when each probe sample comes out.
"""

import numpy as np

from dualwin import FrameParams, PipelineConfig, Session, algorithmic_latency, audit_latency

# ---------------------------------------------------------------------------
# The accounting formula: ows_ms - k * hop_ms.
print("frames ahead -> algorithmic latency (16/4/2 ms geometry):")
for k in range(4):
    params = FrameParams(frames_ahead=k)
    print(f"  k={k}: {algorithmic_latency(params):+.1f} ms")

# ---------------------------------------------------------------------------
# Measure it on a Session, the object that also runs every enhancement:
# ingest one sample per push, note the ingest count at which each probe
# output index is released.
params = FrameParams()
session = Session(PipelineConfig(params=params), channels=1)
rng = np.random.default_rng(1)
x = rng.standard_normal(2048)
probes = {512: None, 517: None, 1024: None}
released = 0
for i in range(len(x)):
    released += len(session.push(x[i : i + 1]))
    for n, hit in probes.items():
        if hit is None and released > n:
            probes[n] = i + 1
session.close()

print("\nsample-by-sample release times (k=0):")
for n, ingested in probes.items():
    kind = "hop boundary" if n % params.hop == 0 else "interior"
    print(f"  output sample {n:5d} ({kind:12s}) released after {ingested} "
          f"ingested samples -> +{(ingested - n) / 16:.3f} ms")

# ---------------------------------------------------------------------------
# The built-in audit measures this for one k at a time, on the same geometry,
# from one sample-by-sample run: every hop boundary's release time, the
# output against the input k hops late, and that the samples released by a
# cut equal a run whose input is zeroed from the cut on.
print("\nfull audit:")
for check in map(audit_latency, range(4)):
    print(f"  k={check.frames_ahead}: expected {check.expected_ms:+.1f} ms, "
          f"measured {check.measured_ms:+.1f} ms, "
          f"causal={'yes' if check.causality_ok else 'NO'}, "
          f"{'PASS' if check.ok else 'FAIL'}")
