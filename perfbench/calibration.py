"""Host-speed calibration: times in seconds at a fixed reference speed.

The shared hosts this benchmark runs on change speed by tens of percent over
seconds to minutes, so raw times of the same code on the same inputs spread
wider than any useful bound.  A calibration chunk is a
fixed piece of pure-Python work that never touches the program: integer
arithmetic, a dict of tuples and a sort, the mix the program's searches and
graph handling run on.  Timing chunks interleaved with the measured work
gives the host's speed at the time that work ran, and

    time at reference speed = raw time * REFERENCE_CHUNK_S / median chunk time

is the time the work would have taken on a host that runs one chunk in
``REFERENCE_CHUNK_S``.  A change to the program moves the raw time and leaves
the chunks alone, so it moves the scaled time by the same share.  The median
keeps a chunk that was hit by an interrupt or a garbage collection from
setting the speed.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_CHUNK_S = 0.0004     # about one chunk's time on a 2-core Xeon VM at 2 GHz
SETUP_CHUNKS = 50              # chunks timed before and again after a set-up


def chunk() -> int:
    """The calibration work, about 0.4 ms of pure Python."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    d = {i: (i, str(i)) for i in range(300)}
    return s + len(sorted(d.values(), key=lambda kv: -kv[0]))


def timed_chunk() -> float:
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def scale(chunk_times: list[float]) -> float:
    """Factor from raw seconds to seconds at the reference speed."""
    return REFERENCE_CHUNK_S / statistics.median(chunk_times)


def timed_at_reference(fn):
    """Run ``fn()``, return (its result, raw seconds, seconds at reference speed).

    Chunks are timed just before and just after the call; their median
    gives the speed.
    """
    chunks = [timed_chunk() for _ in range(SETUP_CHUNKS)]
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    chunks += [timed_chunk() for _ in range(SETUP_CHUNKS)]
    return result, raw, raw * scale(chunks)
