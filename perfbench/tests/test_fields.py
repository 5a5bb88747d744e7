"""Field-consistency tests of the benchmark itself; no wall-clock bounds.

Each workload runs briefly through ``perfbench/run.py``, once plain and
once traced, and the tests check that the reported fields agree with each
other. Run from the root of the repository::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import adapter  # noqa: E402
import run as bench_run  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

SEED = 0
SECONDS = 2


@pytest.fixture(scope="module")
def bench():
    """Runs a workload briefly, once per (workload, trace) in this module;
    returns the printed result and the detailed ``result.json``."""
    done = {}

    def run(workload: str, trace: int) -> tuple[dict, dict]:
        if (workload, trace) not in done:
            cmd = [
                sys.executable, str(BENCH / "run.py"),
                "--workload", workload, "--seed", str(SEED),
                "--seconds", str(SECONDS), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-3000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = ROOT / ".bench_work" / f"{workload}-s{SEED}-t{trace}" / "result.json"
            done[workload, trace] = result, json.loads(detail.read_text(encoding="utf-8"))
        return done[workload, trace]

    return run


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_plain_run_is_correct_with_every_end_to_end_metric(bench, workload):
    result, detail = bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and detail["side"]["failed_frac"] == 0.0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(bench_run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench_run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_run_reports_every_layer_and_spans_fit_in_the_wall_time(bench, workload):
    result, detail = bench(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(bench_run.PER_LAYER)
    side = detail["side"]
    assert 0 < side["self_total_s"] <= side["traced_scope_s"]
    if workload == "live_mcwf6":
        self_us = side["self_us_per_frame"]
        assert max(self_us, key=self_us.get) == "beamformer.update"


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_beamformer_updates_once_per_frame_on_mcwf_only(bench, workload):
    metrics = bench(workload, 1)[0]["metrics"]
    updates, frames = metrics["beamformer.updates"]["value"], metrics["framing.frames"]["value"]
    assert frames > 0
    assert updates == (frames if workload == "live_mcwf6" else 0)


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_external_bytes_are_frames_times_protocol_frame_size(bench, workload):
    result, detail = bench(workload, 1)
    metrics = result["metrics"]
    out, inp = metrics["estimators.external_bytes_out"]["value"], metrics["estimators.external_bytes_in"]["value"]
    if workload != "live_external6":
        assert out == inp == 0
        return
    request, reply = adapter.external_frame_bytes()
    frames = metrics["framing.frames"]["value"]
    assert detail["side"]["external_frames"] == frames
    assert out == frames * request
    assert inp == frames * reply


def test_tracer_records_boundaries_and_self_time():
    def outer(fn):
        return fn()

    def inner():
        return 1

    def leaf():
        return 2

    module = types.SimpleNamespace(outer=outer, inner=inner, leaf=leaf)
    targets = [
        Target(module, "outer", "a.outer"),
        Target(module, "inner", "a.inner"),
        Target(module, "leaf", "b.leaf"),
    ]
    tracer = Tracer()
    with tracer.installed(targets, [module]):
        assert module.outer(module.inner) == 1
        assert module.outer(module.leaf) == 2
    assert (module.outer, module.inner, module.leaf) == (outer, inner, leaf)
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["a.outer", "a.outer", "b.leaf"]  # a.inner ran inside its own layer
    assert spans["parent"].tolist() == [-1, -1, 1]
    duration = spans["end_ns"] - spans["start_ns"]
    assert spans["self_ns"].tolist() == [duration[0], duration[1] - duration[2], duration[2]]
