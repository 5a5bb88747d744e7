"""Minimal external-estimator child used by the protocol tests.

Modes: identity (reply with mixture channel 0), short (reply with a wrong
length), hang (read the frame, never reply), split (the identity reply in
three writes, the first inside the length prefix), nan (a reply of the right
length, all NaN), horizon (reply to every bin with the horizon, the
handshake's fourth field), exit (exit right after the handshake), exit_after_frame
(read one frame, exit without a reply).
"""

import struct
import sys
import time


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "identity"
    handshake = sys.stdin.buffer.readline().split()
    n_bins = int(handshake[0])
    if mode == "exit":
        return 0
    while True:
        header = sys.stdin.buffer.read(4)
        if len(header) < 4:
            return 0
        (length,) = struct.unpack("<I", header)
        payload = sys.stdin.buffer.read(length)
        if mode == "exit_after_frame":
            return 0
        if mode == "hang":
            time.sleep(60)
            return 0
        reply = payload[: n_bins * 8]  # channel 0 (re, im) pairs
        if mode == "short":
            reply = reply[: len(reply) // 2]
        elif mode == "nan":
            reply = struct.pack(f"<{n_bins * 2}f", *[float("nan")] * (n_bins * 2))
        elif mode == "horizon":
            reply = struct.pack(f"<{n_bins * 2}f", *[float(handshake[3]), 0.0] * n_bins)
        frame = struct.pack("<I", len(reply)) + reply
        cuts = (0, 2, 9, len(frame)) if mode == "split" else (0, len(frame))
        for start, end in zip(cuts, cuts[1:]):
            sys.stdout.buffer.write(frame[start:end])
            sys.stdout.buffer.flush()
            if mode == "split":
                time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
