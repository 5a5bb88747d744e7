"""The names the benchmark adapter calls still exist and still agree.

``perfbench/adapter.py`` reaches into dualwin's modules by name; the full
benchmark, ``python -m pytest perfbench/tests``, runs for minutes. These
checks import the adapter and its tracer unchanged and drive each entry
point once on short inputs, so a rename or deletion that would break the
benchmark fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import adapter  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(adapter.LIVE_STREAMS))
def test_live_stream_matches_run_pipeline(tmp_path, workload):
    manifest = adapter.make_live_inputs(workload, 0, 0.2, tmp_path)
    stream = manifest["streams"][0]
    mixture, reference = np.load(stream["mixture"]), np.load(stream["reference"])
    live = adapter.LiveStream(adapter.live_config(workload, tmp_path / "live.json"), mixture, reference)
    try:
        released = [live.push(mixture[:, i : i + adapter.HOP]) for i in range(0, mixture.shape[1], adapter.HOP)]
        out = live.finish(released)
    finally:
        live.close()
    expected = adapter.reference_output(adapter.live_config(workload, tmp_path / "gate.json"), mixture, reference)
    assert np.array_equal(out, expected)


def test_batch_job_exits_0(tmp_path):
    jobs = adapter.make_batch_inputs(0, tmp_path)
    job = jobs["job"]
    assert adapter.run_job(job["config"]) == 0
    assert np.array_equal(adapter.read_output(job["output"]), adapter.batch_expected(job["config"]))


def test_tracer_installs_on_every_target_and_restores_them():
    tracer = Tracer()
    targets = adapter.trace_targets()
    originals = [getattr(t.owner, t.attr) for t in targets]
    with tracer.installed(targets, adapter.dualwin_modules()):
        assert len(tracer.names) == len(targets)
    assert [getattr(t.owner, t.attr) for t in targets] == originals


@pytest.mark.parametrize("workload", sorted(adapter.LIVE_STREAMS))
def test_traced_live_stream_has_one_estimator_span_per_frame_and_stage(tmp_path, workload):
    # estimators.stage1_us and external_roundtrip_us read these spans; a
    # refactor that leaves the traced names uncalled would make them read 0
    manifest = adapter.make_live_inputs(workload, 0, 0.05, tmp_path)
    stream = manifest["streams"][0]
    mixture, reference = np.load(stream["mixture"]), np.load(stream["reference"])
    live = adapter.LiveStream(adapter.live_config(workload, tmp_path / "live.json"), mixture, reference)
    hops = 6
    tracer = Tracer()
    try:
        with tracer.installed(adapter.trace_targets(), adapter.dualwin_modules()):
            for i in range(hops):
                live.push(mixture[:, i * adapter.HOP : (i + 1) * adapter.HOP])
    finally:
        live.close()
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    frames = spans["count"][names == "framing.analysis_push"].sum()
    assert frames == hops
    estimator = np.char.startswith(names, "estimators.")
    stage1, stage2 = names[estimator & (spans["tag"] == 1)], names[estimator & (spans["tag"] == 2)]
    assert len(stage1) == frames
    assert len(stage2) == (frames if workload == "live_mcwf6" else 0)
    if workload == "live_external6":
        assert set(stage1) == {"estimators.ExternalEstimator.estimate"}
