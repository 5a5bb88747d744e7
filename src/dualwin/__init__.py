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
"""

from .beamformer import (
    BeamformerStateError,
    OnlineMcwf,
    apply_filter,
    offline_mcwf,
    woodbury_update,
)
from .estimators import EstimatorInput, EstimatorKind, save_frame_file
from .framing import (
    AnalysisStream,
    FrameParams,
    MultichannelSpectrumFrame,
    SpectrumFrame,
    SynthesisStream,
    algorithmic_latency,
    analyze,
    build_windows,
    synthesize,
    synthesize_frame,
)
from .metrics import MetricReport, compute_metrics, ri_mag_loss, si_sdr, wav_mag_loss
from .pipeline import (
    ConfigError,
    LatencyCheck,
    PipelineConfig,
    RunReport,
    audit_all,
    audit_latency,
    run_pipeline,
)
from .simulate import ArrayGeometry, Scene, array_geometry, make_scene, mix, spatialize
from .wavio import WavError, read_wav, write_wav
from .windows import (
    ASQRT_HANN,
    RECT,
    SQRT_HANN,
    TUKEY,
    AnalysisWindow,
    SynthesisWindow,
    WindowKind,
    make_analysis_window,
    make_synthesis_window,
    verify_cola,
)

__version__ = "0.1.0"
