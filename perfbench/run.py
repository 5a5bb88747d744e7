"""dualwin benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live_mcwf6 --seed 1 --seconds 25 --trace 0

Workloads are ``live_mcwf6``, ``live_external6`` and ``batch_enhance``
(see ``perfbench/README.md``). The script makes the inputs from
``--seed``, runs ``workload.py`` as the measured process, checks every
output against ``run_pipeline``, prints one ``name value unit`` line per
metric and, as its last line, one JSON object::

    {"correct": true, "attempted": 9000, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from a traced pass that follows a plain pass
of the same length. Exit status: 0 when every output is correct, 1 when a
check fails, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 150.0  # the measured process; the whole run must end within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Timing metrics are read in the host's fastest moments: live ones over the
# FAST_COUNT windows of WINDOW_TICKS hop ticks (10 ms each) whose slowest
# hop was fastest, batch ones over the FAST_COUNT fastest jobs.
WINDOW_TICKS = 5
FAST_COUNT = 10


def calibration_us(reps: int = 200) -> float:
    """Median time of one fixed 129x6x6 complex Woodbury update, in numpy alone.

    Reported next to every result so a slow phase of the host shows; it
    never scales a metric.
    """
    rng = np.random.default_rng(0)
    y = rng.standard_normal((129, 6)) + 1j * rng.standard_normal((129, 6))
    inv = np.tile(np.eye(6, dtype=np.complex128) * 1e6, (129, 1, 1))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        num = inv @ y[..., None]
        den = 1.0 + np.real(y.conj()[..., None, :] @ num)
        inv - (num @ num.conj().swapaxes(-1, -2)) / den
        times.append(time.perf_counter() - start)
    return float(np.median(times) * 1e6)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {
            key: os.environ.get(key, "default")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_start": list(os.getloadavg()),
        "calibration_woodbury_us_start": calibration_us(),
    }


# ---------------------------------------------------------------------------
# correctness gate


def gate_live(adapter, workload: str, manifest: dict, passes: list[dict], work: Path) -> list[list[bool]]:
    """Per pass and stream: is the output bit-identical to ``run_pipeline``?"""
    ok = [[False] * p["streams"] for p in passes]
    for s, stream in enumerate(manifest["streams"]):
        if not any(p["outputs"][s] for p in passes):
            continue
        mixture, reference = np.load(stream["mixture"]), np.load(stream["reference"])
        cfg = adapter.live_config(workload, work / f"child-gate-{s}.json")
        expected = adapter.reference_output(cfg, mixture, reference)
        for k, p in enumerate(passes):
            if p["outputs"][s]:
                ok[k][s] = bool(np.array_equal(np.load(p["outputs"][s]), expected))
    return ok


def gate_batch(adapter, manifest: dict, passes: list[dict]) -> list[list[bool]]:
    """Per pass and job: exit 0, bytes equal to every other job's, and the
    samples equal to the float32 ``run_pipeline`` output."""
    digests = {d for p in passes for d in p["digests"] if d is not None}
    samples_ok = bool(digests) and np.array_equal(
        adapter.read_output(manifest["job"]["output"]), adapter.batch_expected(manifest["job"]["config"])
    )
    good = samples_ok and len(digests) == 1
    return [[code == 0 and good for code in p["codes"]] for p in passes]


# ---------------------------------------------------------------------------
# metrics


def setup_time(samples: list[list[float]]) -> float:
    """The lower of the median set-up times before and after the measured loop.

    Set-ups are bunched in a few seconds, which may all fall in one of the
    host's slow stretches; timing them at two moments of the run and taking
    the faster follows the host's fast phase, as the live metrics do.
    """
    return float(min(np.median(times) for times in samples if times))


def fast_hops(latency: np.ndarray, busy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latency and busy time of the stream-hops in the host's fastest moments.

    Both arrays are (streams, ticks). The run is cut into windows of
    ``WINDOW_TICKS`` ticks, and the hops of the ``FAST_COUNT`` windows
    whose highest hop latency is lowest are returned. The host's speed
    swings by 2-3x within seconds, so a statistic over every hop mostly
    counts how long the host was slow; the fast windows show what the
    program costs. Ranking by latency rather than busy time also leaves out
    windows that catch up on a backlog after a host stall.
    """
    ticks = min(WINDOW_TICKS, latency.shape[1])
    n = latency.shape[1] // ticks * ticks

    def windows(a):
        return a[:, :n].reshape(len(a), -1, ticks).swapaxes(0, 1).reshape(n // ticks, -1)

    lat_w, busy_w = windows(latency), windows(busy)
    fastest = np.argsort(lat_w.max(axis=1))[:FAST_COUNT]  # a failed hop (NaN) sorts last
    lat, busy = lat_w[fastest].ravel(), busy_w[fastest].ravel()
    done = ~np.isnan(lat)
    return lat[done], busy[done]


def live_metrics(adapter, manifest: dict, plain: dict, ok: list[bool]) -> tuple[dict, dict]:
    arrays = np.load(plain["arrays"])
    good = np.array(ok)
    latency, busy = arrays["latency"][good, 1:], arrays["busy"][good, 1:]
    lateness = arrays["lateness"][1:]
    attempted_hops = plain["streams"] * (plain["hops"] - 1)
    all_latency = latency[~np.isnan(latency)]
    si_sdr = [
        adapter.si_sdr(np.load(plain["outputs"][s]), np.load(stream["reference"]))
        for s, stream in enumerate(manifest["streams"])
        if ok[s]
    ]
    fast_latency, fast_busy = fast_hops(latency, busy)
    metrics = {
        "hop_latency_p50_us": float(np.percentile(fast_latency, 50) * 1e6),
        "hop_latency_p90_us": float(np.percentile(fast_latency, 90) * 1e6),
        "streams_per_core": float(adapter.HOP_S / np.mean(fast_busy)),
        "setup_s": setup_time(plain["setup_s"]),
        "si_sdr_db": float(np.mean(si_sdr)),
    }
    side = {
        "all_hops_latency_p50_us": float(np.percentile(all_latency, 50) * 1e6),
        "all_hops_latency_p90_us": float(np.percentile(all_latency, 90) * 1e6),
        "all_hops_latency_p99_us": float(np.percentile(all_latency, 99) * 1e6),
        "all_hops_busy_mean_us": float(np.nanmean(busy) * 1e6),
        "deadline_miss_frac": float(
            (np.count_nonzero(all_latency > adapter.HOP_S) + attempted_hops - len(all_latency)) / attempted_hops
        ),
        "hops_measured": int(len(all_latency)),
        "fast_hops": int(len(fast_latency)),
        "generator_lateness_p50_us": float(np.nanpercentile(lateness, 50) * 1e6),
        "generator_lateness_p99_us": float(np.nanpercentile(lateness, 99) * 1e6),
        "backlogged_ticks": int(np.count_nonzero(np.isnan(lateness))),
        "setup_samples": sum(map(len, plain["setup_s"])),
    }
    return metrics, side


def batch_metrics(adapter, manifest: dict, plain: dict, ok: list[bool]) -> tuple[dict, dict]:
    """Every hop of a job is due when the job starts and released when its
    WAV is written, so hop latency is job latency. Like the live metrics,
    it is read in the host's fastest moments: over the ``FAST_COUNT``
    fastest jobs."""
    job_s = np.array([t for t, good in zip(plain["job_s"], ok) if good])
    hops = plain["samples"] // adapter.HOP
    fast = np.sort(job_s)[:FAST_COUNT]
    reference = adapter.batch_reference(manifest["job"]["config"])
    metrics = {
        "hop_latency_p50_us": float(np.percentile(fast, 50) * 1e6),
        "hop_latency_p90_us": float(np.percentile(fast, 90) * 1e6),
        "streams_per_core": float(adapter.HOP_S * hops / np.mean(fast)),
        "setup_s": setup_time(plain["setup_s"]),
        "si_sdr_db": adapter.si_sdr(adapter.read_output(manifest["job"]["output"]), reference),
    }
    side = {
        "all_jobs_latency_p50_us": float(np.percentile(job_s, 50) * 1e6),
        "all_jobs_latency_p90_us": float(np.percentile(job_s, 90) * 1e6),
        "all_jobs_streams_per_core": float(adapter.HOP_S * hops / np.mean(job_s)),
        "jobs": len(plain["job_s"]),
        "job_s": plain["job_s"],
        "setup_samples": sum(map(len, plain["setup_s"])),
    }
    return metrics, side


def layer_metrics(adapter, workload: str, passes: list[dict], work: Path) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass's spans.

    ``*_us`` are µs per frame through the chain after set-up: live spans of
    hop 0 belong to set-up (the first external round trip waits for the
    child to boot) and are left out of them. ``*_ms`` and ``*_s`` are per
    session (a live stream set-up or a batch job). Counts are totals over
    the traced pass, set-up included.
    """
    plain, traced = passes
    spans = np.load(work / "spans.npz")
    names = spans["names"][spans["name"]]
    duration = spans["end_ns"] - spans["start_ns"]

    def select(name):
        return np.char.startswith(names, name) if name.endswith(".") else names == name

    def total_ns(name, mask=True):
        return float(duration[select(name) & mask].sum())

    steady = spans["hop"] != 0
    frames = int(spans["count"][select("framing.analysis_push")].sum())
    steady_frames = int(spans["count"][select("framing.analysis_push") & steady].sum())
    if workload == "batch_enhance":
        sessions = len(traced["job_s"])
    else:
        sessions = sum(map(len, traced["setup_s"]))
    per_frame = lambda ns: ns / steady_frames / 1e3 if steady_frames else 0.0  # noqa: E731
    per_session = lambda ns, scale=1e6: ns / sessions / scale if sessions else 0.0  # noqa: E731

    ext = select("estimators.ExternalEstimator.estimate") & steady
    roundtrip_us = float(duration[ext].mean() / 1e3) if ext.any() else 0.0
    child = adapter.read_child_stats(traced.get("child_stats", []))
    child_busy_us = child["busy_ns"] / child["frames"] / 1e3 if child["frames"] else 0.0
    run_pipeline = select("pipeline.run_pipeline")

    if workload == "batch_enhance":
        overhead = np.mean(traced["job_s"]) / np.mean(plain["job_s"]) - 1.0
    else:
        busy = [np.nanmean(np.load(p["arrays"])["busy"][:, 1:]) for p in passes]
        overhead = busy[1] / busy[0] - 1.0

    metrics = {
        "beamformer.update_us": per_frame(total_ns("beamformer.update", steady)),
        "beamformer.apply_filter_us": per_frame(total_ns("beamformer.apply_filter", steady)),
        "beamformer.updates": int(select("beamformer.update").sum()),
        "framing.analysis_push_us": per_frame(total_ns("framing.analysis_push", steady)),
        "framing.synthesize_frame_us": per_frame(total_ns("framing.synthesize_frame", steady)),
        "framing.synthesis_push_us": per_frame(total_ns("framing.synthesis_push", steady)),
        "framing.frames": frames,
        "framing.analyze_ms": per_session(total_ns("framing.analyze")),
        "windows.build_windows_ms": per_session(total_ns("windows.build_windows")),
        "estimators.make_estimator_ms": per_session(total_ns("estimators.make_estimator")),
        "estimators.stage1_us": per_frame(total_ns("estimators.", steady & (spans["tag"] == 1))),
        "estimators.external_roundtrip_us": roundtrip_us,
        "estimators.external_child_busy_us": child_busy_us,
        "estimators.external_wait_us": roundtrip_us - child_busy_us if ext.any() else 0.0,
        "estimators.external_bytes_out": child["request_bytes"],
        "estimators.external_bytes_in": child["reply_bytes"],
        "pipeline.run_pipeline_s": per_session(total_ns("pipeline.run_pipeline"), 1e9),
        "pipeline.self_ms": per_session(float(spans["self_ns"][run_pipeline].sum())),
        "metrics.compute_metrics_ms": per_session(total_ns("metrics.compute_metrics")),
        "wavio.read_ms": per_session(total_ns("wavio.read")),
        "wavio.write_ms": per_session(total_ns("wavio.write")),
        "wavio.bytes_read": int(spans["count"][select("wavio.read")].sum()),
        "wavio.bytes_written": int(spans["count"][select("wavio.write")].sum()),
        "config.load_job_ms": per_session(total_ns("config.load_job")),
        "trace.overhead_frac": float(overhead),
    }
    self_by_name = {}
    for name in sorted(set(names.tolist())):
        self_by_name[name] = float(spans["self_ns"][(names == name) & steady].sum() / 1e3 / max(steady_frames, 1))
    side = {
        "spans": int(len(names)),
        "sessions": sessions,
        "external_frames": child["frames"],
        "self_us_per_frame": self_by_name,
        "self_total_s": float(spans["self_ns"].sum() / 1e9),
        "traced_scope_s": traced["scope_s"],
    }
    return metrics, side


# ---------------------------------------------------------------------------


def parse_args(argv):
    def nonneg_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=nonneg_int)
    parser.add_argument("--seconds", required=True, type=positive)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_measured(args, work: Path, pass_seconds: float) -> bool:
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--work", str(work),
        "--seconds", repr(pass_seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr.fileno(), timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: measured process exceeded {TIMEOUT_S:.0f} s", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print(f"error: measured process exited with {proc.returncode}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import adapter
    except ImportError as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2

    env = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # a traced run makes a plain and a traced pass, each half as long
    pass_seconds = args.seconds / (1 + args.trace)
    if args.workload == "batch_enhance":
        manifest = adapter.make_batch_inputs(args.seed, work)
    else:
        manifest = adapter.make_live_inputs(args.workload, args.seed, pass_seconds, work)
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

    if not run_measured(args, work, pass_seconds):
        return 2
    measured = json.loads((work / "measured.json").read_text(encoding="utf-8"))
    passes = measured["passes"]

    if args.workload == "batch_enhance":
        ok = gate_batch(adapter, manifest, passes)
        attempted = sum(len(p["codes"]) + len(p["probe_codes"]) for p in passes)
        failed = sum(ok_p.count(False) + sum(c != 0 for c in p["probe_codes"]) for ok_p, p in zip(ok, passes))
    else:
        ok = gate_live(adapter, args.workload, manifest, passes, work)
        attempted = sum(p["streams"] * p["hops"] for p in passes)
        failed = sum(ok_p.count(False) * p["hops"] for ok_p, p in zip(ok, passes))
    correct = failed == 0

    side = {"failed_frac": failed / attempted}
    if not any(ok[0]):
        metrics, units = {}, {}
    elif args.trace:
        metrics, extra = layer_metrics(adapter, args.workload, passes, work)
        units = PER_LAYER
        side.update(extra)
    else:
        compute = batch_metrics if args.workload == "batch_enhance" else live_metrics
        metrics, extra = compute(adapter, manifest, passes[0], ok[0])
        metrics["peak_rss_mb"] = measured["peak_rss_mb"]
        metrics = {name: metrics[name] for name in END_TO_END}
        units = END_TO_END
        side.update(extra)
    env["measured_on_cpu"] = measured["cpu"]
    env["calibration_woodbury_us_end"] = calibration_us()
    env["loadavg_end"] = list(os.getloadavg())
    errors = [e for p in passes for e in p.get("errors", [])]

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"args": vars(args), "env": env, "side": side, "errors": errors, **result}, indent=2),
        encoding="utf-8",
    )
    for path in list(work.glob("*.npy")) + list(work.glob("*.wav")):
        path.unlink()

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in side.items():
        if isinstance(value, (int, float)):
            print(f"{name} {value:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
