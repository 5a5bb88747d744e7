"""External estimator child owned by the benchmark.

Speaks dualwin's stdio frame protocol (see ``dualwin/estimators.py``) and
replies to every frame with mixture channel 0, so a stream through it is
the mixture's reference channel after float32 rounding. It counts the
bytes of every frame it reads and writes, each with its 4-byte length
prefix (the handshake line is not counted), and times its own work per
frame: from a fully read request to a flushed reply. At end of input it
writes these counters as JSON to the ``--stats`` path.

Run: ``python3 perfbench/external_child.py --stats counters.json``
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write the counters at exit")
    args = parser.parse_args(argv)
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    n_bins = int(stdin.readline().split()[0])
    reply_len = n_bins * 8  # (re, im) float32 pairs of channel 0
    frames = busy_ns = request_bytes = reply_bytes = 0
    while True:
        header = stdin.read(4)
        if not header:
            break
        if len(header) < 4:
            print("external_child: truncated frame header", file=sys.stderr)
            return 1
        (length,) = struct.unpack("<I", header)
        payload = stdin.read(length)
        if len(payload) < length or length < reply_len:
            print(f"external_child: bad frame of {len(payload)}/{length} bytes", file=sys.stderr)
            return 1
        start = time.perf_counter_ns()
        reply = struct.pack("<I", reply_len) + payload[:reply_len]
        stdout.write(reply)
        stdout.flush()
        busy_ns += time.perf_counter_ns() - start
        frames += 1
        request_bytes += 4 + length
        reply_bytes += len(reply)
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "frames": frames,
                "busy_ns": busy_ns,
                "request_bytes": request_bytes,
                "reply_bytes": reply_bytes,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
