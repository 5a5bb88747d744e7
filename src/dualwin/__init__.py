"""Frame-online speech enhancement with dual-window STFT and very low
algorithmic latency.

A long analysis window keeps the frequency resolution of a regular STFT
while a short output window drives the overlap-add, so the algorithmic
latency of the whole chain equals the output window span (4 ms at the
default 16/4/2 ms geometry) rather than the analysis window length.
Between two pluggable estimator stages sits a frame-online multi-channel
Wiener beamformer whose covariance inverse is maintained with rank-1
Woodbury updates; predicting estimates one or more frames ahead trades
accuracy for a further hop of latency each, down to 0 ms or below.

The names below are what the README and the demos use, plus the exceptions a
caller catches; everything else is imported from its submodule.
``audit_latency(k)`` measures the latency of one prediction horizon k on the
default geometry; loop over the horizons to audit several.
"""

from .beamformer import BeamformerStateError
from .estimators import EstimatorKind, ExternalProtocolError
from .framing import FrameParams, algorithmic_latency, analyze, build_windows
from .metrics import si_sdr
from .pipeline import ConfigError, PipelineConfig, Session, audit_latency, run_pipeline
from .simulate import make_scene
from .wavio import WavError
from .windows import ASQRT_HANN, RECT, SQRT_HANN, TUKEY, verify_cola

__version__ = "0.1.0"
