"""The measured process: runs one workload on inputs that run.py prepared.

Everything timed happens here, in one process with no threads. run.py
generates the inputs before starting this process and checks its outputs
after it exits, so neither cost is timed and neither shows in this
process's peak RSS. Results go to ``measured.json`` (plus one ``.npz`` of
per-hop arrays per live pass) in the work directory; a traced run adds
``spans.npz``.

Live workloads are an open loop on the real hop clock: after set-up, hop
``i`` of every stream is due at ``t0 + (i - 1) * 2 ms`` whether or not the
earlier hops are done, and the streams are served in turn, one hop each.
``batch_enhance`` is a closed loop of in-process ``dualwin enhance`` jobs,
one at a time.

With ``--trace 1`` the workload runs twice on the same inputs: a plain
pass, then a pass with the tracer installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import adapter
from tracing import Tracer

# Set-up is timed twice, before and after the measured loop (see run.setup_time).
SETUP_ROUNDS = 3  # live set-ups per stream at each of the two moments
PROBE_JOBS = 8  # short batch jobs that time the per-job set-up, at each moment
LEAD_S = 0.005  # gap between the end of set-up and the first due hop


def wait_until(due: float) -> float:
    """Spin until ``due`` on the perf_counter clock; returns how late we woke, in s.

    The loop spins rather than sleeps: on a virtual machine an idle vCPU is
    descheduled, and waking it again costs up to milliseconds that would be
    measured as hop latency of the program.
    """
    now = time.perf_counter()
    while now < due:
        now = time.perf_counter()
    return now - due


def tracing_scope(tracer: Tracer | None):
    if tracer is None:
        return nullcontext()
    return tracer.installed(adapter.trace_targets(), adapter.dualwin_modules())


class LivePass:
    """One pass of a live workload: set-up, the open loop, then the flush."""

    def __init__(self, workload: str, manifest: dict, work: Path, label: str, tracer: Tracer | None):
        self.workload, self.work, self.label, self.tracer = workload, work, label, tracer
        self.mixtures = [np.load(s["mixture"]) for s in manifest["streams"]]
        self.references = [np.load(s["reference"]) for s in manifest["streams"]]
        self.n_streams = len(self.mixtures)
        self.n_hops = self.mixtures[0].shape[1] // adapter.HOP
        self.streams: list = [None] * self.n_streams
        self.released: list[list[np.ndarray]] = [[] for _ in range(self.n_streams)]
        self.failed = [False] * self.n_streams
        self.errors: list[str] = []
        self.setup_s: list[list[float]] = []  # before and after the loop
        self.child_stats: list[str] = []
        self.latency = np.full((self.n_streams, self.n_hops), np.nan)
        self.busy = np.full((self.n_streams, self.n_hops), np.nan)
        self.lateness = np.full(self.n_hops, np.nan)  # generator lateness, when it was idle
        self.wall_s = 0.0

    def _mark(self, s: int, hop: int):
        if self.tracer is not None:
            self.tracer.stream, self.tracer.hop = s, hop

    def _fail(self, s: int, exc: Exception):
        self.failed[s] = True
        self.errors.append(f"stream {s}: {''.join(traceback.format_exception_only(exc)).strip()}")
        print(traceback.format_exc(), file=sys.stderr)
        if self.streams[s] is not None:
            self.streams[s].close()
            self.streams[s] = None

    def set_up(self, moment: str) -> list[float]:
        """Build every stream ``SETUP_ROUNDS`` times, timing construction plus
        the first hop. Before the loop the last round's streams stay open
        for it; after the loop every stream is closed again."""
        hop = adapter.HOP
        times = []
        for r in range(SETUP_ROUNDS):
            for s in range(self.n_streams):
                if self.failed[s]:
                    continue
                stats = self.work / f"child-{self.label}-{moment}{r}-s{s}.json"
                cfg = adapter.live_config(self.workload, stats)
                self._mark(s, 0)
                start = time.perf_counter()
                try:
                    stream = adapter.LiveStream(cfg, self.mixtures[s], self.references[s])
                except Exception as exc:
                    self._fail(s, exc)
                    continue
                self.streams[s] = stream
                try:
                    first = stream.push(self.mixtures[s][:, :hop])
                except Exception as exc:
                    self._fail(s, exc)
                    continue
                times.append(time.perf_counter() - start)
                if self.workload == "live_external6":
                    self.child_stats.append(str(stats))
                if moment == "before" and r == SETUP_ROUNDS - 1:
                    self.released[s] = [first]
                else:
                    stream.close()
                    self.streams[s] = None
        return times

    def serve(self):
        """The open loop over hops 1..n-1 of every stream."""
        hop = adapter.HOP
        t0 = time.perf_counter() + LEAD_S
        last_end = t0
        for i in range(1, self.n_hops):
            due = t0 + (i - 1) * adapter.HOP_S
            if time.perf_counter() < due:
                self.lateness[i] = wait_until(due)
            for s in range(self.n_streams):
                stream = self.streams[s]
                if stream is None:
                    continue
                self._mark(s, i)
                start = time.perf_counter()
                try:
                    out = stream.push(self.mixtures[s][:, i * hop : (i + 1) * hop])
                except Exception as exc:
                    self._fail(s, exc)
                    continue
                end = time.perf_counter()
                self.released[s].append(out)
                self.latency[s, i] = end - due
                self.busy[s, i] = end - start
                last_end = end
        self.wall_s = last_end - t0 + adapter.HOP_S

    def finish(self):
        """Flush every live stream, save its whole output and close it."""
        for s in range(self.n_streams):
            if self.streams[s] is not None:
                self._mark(s, self.n_hops)
                try:
                    np.save(self.output(s), self.streams[s].finish(self.released[s]))
                except Exception as exc:
                    self._fail(s, exc)
                    continue
                self.streams[s].close()
                self.streams[s] = None

    def output(self, s: int) -> Path:
        return self.work / f"out-{self.label}-{s}.npy"

    def run(self) -> dict:
        with tracing_scope(self.tracer):
            start = time.perf_counter()
            try:
                self.setup_s.append(self.set_up("before"))
                self.serve()
                self.finish()
                self.setup_s.append(self.set_up("after"))
            finally:
                for stream in self.streams:
                    if stream is not None:
                        stream.close()
            scope_s = time.perf_counter() - start
        arrays = self.work / f"live-{self.label}.npz"
        np.savez(arrays, latency=self.latency, busy=self.busy, lateness=self.lateness)
        return {
            "streams": self.n_streams,
            "hops": self.n_hops,
            "failed_streams": self.failed,
            "errors": self.errors,
            "setup_s": self.setup_s,
            "outputs": [None if self.failed[s] else str(self.output(s)) for s in range(self.n_streams)],
            "child_stats": self.child_stats,
            "wall_s": self.wall_s,
            "scope_s": scope_s,
            "arrays": str(arrays),
        }


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def batch_pass(manifest: dict, seconds: float, tracer: Tracer | None) -> dict:
    """Full jobs back to back for ``seconds``, between two rounds of short
    probe jobs that time the per-job set-up.

    The tracer, when given, covers the full jobs only.
    """
    probe, job = manifest["probe"], manifest["job"]
    setup_s, probe_codes = [], []

    def probe_jobs():
        times = []
        for _ in range(PROBE_JOBS):
            start = time.perf_counter()
            probe_codes.append(adapter.run_job(probe["config"]))
            times.append(time.perf_counter() - start)
        setup_s.append(times)

    probe_jobs()

    job_s, codes, digests = [], [], []
    with tracing_scope(tracer):
        t_begin = time.perf_counter()
        while not job_s or time.perf_counter() - t_begin < seconds:
            if tracer is not None:
                tracer.stream = len(job_s)
            start = time.perf_counter()
            codes.append(adapter.run_job(job["config"]))
            job_s.append(time.perf_counter() - start)
            digests.append(_digest(job["output"]) if codes[-1] == 0 else None)
        wall_s = time.perf_counter() - t_begin
    probe_jobs()
    return {
        "setup_s": setup_s,
        "probe_codes": probe_codes,
        "job_s": job_s,
        "codes": codes,
        "digests": digests,
        "samples": job["samples"],
        "wall_s": wall_s,
        "scope_s": wall_s,
    }


def pin_to_one_cpu() -> int:
    """Keep this process, and the external children it starts, on one CPU.

    The host runs each vCPU at a fast or a slow speed that changes within
    seconds. Spread over two vCPUs, a hop is fast only while both are, so
    fast windows are rarer; on one CPU a pipe round trip is also two
    context switches rather than a wake-up of an idle vCPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float, help="length of one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    cpu = pin_to_one_cpu()

    passes = []
    tracer = None
    peak_rss_kb = 0
    for label in ("plain", "traced")[: 1 + args.trace]:
        tracer = Tracer() if label == "traced" else None
        if args.workload == "batch_enhance":
            result = batch_pass(manifest, args.seconds, tracer)
        else:
            result = LivePass(args.workload, manifest, args.work, label, tracer).run()
        result["label"] = label
        passes.append(result)
        if tracer is None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        np.savez(args.work / "spans.npz", names=np.array(tracer.names), **tracer.arrays())
    (args.work / "measured.json").write_text(
        json.dumps({"passes": passes, "peak_rss_mb": peak_rss_kb / 1024.0, "cpu": cpu}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
