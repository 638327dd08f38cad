"""How fast the shared machine ran around each op.

On a shared host every op of a run can be 20-50% slower for minutes at a
time, which no repetition inside a 30-second run filters out.  A fixed
reference loop that does not touch bdm is timed between ops, and each op's
time is scaled by NOMINAL_S over the median reference time around it: a
latency then reads as it would on a machine where the reference takes
NOMINAL_S.  Over 2-second windows of `back-and-forth` the ops' speed
varied with a standard deviation of 20%, and their speed over the
reference's with one of 8%.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_ITERATIONS = 4000  # about 0.2 ms
NOMINAL_S = 0.0002  # the reference's time at the machine's best, roughly
SAMPLE_EVERY_S = 0.005  # one reference sample per 5 ms of op time
MAX_BURST = 25
WINDOW = 60  # samples on each side of an op that set its scale


def reference() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return total


def sample(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


def scale(samples: list[float]) -> float:
    """The factor that turns a time measured beside these reference samples
    into one at the nominal machine speed."""
    return NOMINAL_S / statistics.median(samples) if samples else 1.0


class Calibration:
    def __init__(self):
        self.times: list[float] = []
        self.marks: list[int] = []
        self.last = time.perf_counter()

    def tick(self):
        """Call after each op: marks where the op sits among the samples,
        then times the reference once for every 5 ms that passed since the
        last samples, so a few percent of the run goes to it."""
        self.marks.append(len(self.times))
        due = min(MAX_BURST, int((time.perf_counter() - self.last) / SAMPLE_EVERY_S))
        if due:
            self.times += sample(due)
            self.last = time.perf_counter()

    def op_scales(self) -> list[float]:
        """The scale of each op ticked so far, from the samples taken in the
        WINDOW before and after it."""
        by_mark: dict[int, float] = {}
        for m in self.marks:
            if m not in by_mark:
                by_mark[m] = scale(self.times[max(0, m - WINDOW):m + WINDOW])
        return [by_mark[m] for m in self.marks]
