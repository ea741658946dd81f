"""What the benchmark runs and how it times: sizes, seeds, the digest gate, the speed sampler.

Imports nothing from spinhl, so run.py can use it before it knows that a
checkout is present.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import signal
import statistics
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Reported times are scaled to a host on which one reference() call takes this long.
REF_NOMINAL_S = 0.00025

# The seed of every digest-pinned output; the CLI examples use it too.
GATE_SEED = 7

# Problem sizes.  "full" is what the benchmark measures; "tiny" is for the
# smoke test and has its own pinned digests.
SIZES = {
    "full": {
        "mc_T": 4, "mc_x": 20, "mc_warmup": 50,
        "grow_T": {"ds6v": 128, "field": 48, "particles": 256},
        "verify_args": ["--point", "0", "--cap", "20"],
        "sweep_points": 60, "sweep_T": {"field": 8, "ds6v": 32, "particles": 32},
        "layer_ds6v_T": (32, 64, 128), "skew_top": 25,
    },
    "tiny": {
        "mc_T": 4, "mc_x": 20, "mc_warmup": 5,
        "grow_T": {"ds6v": 12, "field": 6, "particles": 16},
        "verify_args": ["--point", "0", "--cap", "20", "--only", "r-stochastic"],
        "sweep_points": 3, "sweep_T": {"field": 4, "ds6v": 6, "particles": 6},
        "layer_ds6v_T": (4, 6, 8), "skew_top": 6,
    },
}

# CLI stream ids: sample-field uses stream 0, ds6v 1, particles 2.
STREAM = {"field": 0, "ds6v": 1, "particles": 2}


class CheckFailed(Exception):
    """An output broke an invariant or a pinned digest."""


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(size):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)[size]


def check_digest(name, text, digests):
    """Compare the SHA-256 of an output with its pinned value."""
    got = sha256(text)
    if got != digests[name]:
        raise CheckFailed(f"digest mismatch for {name}: {got} != {digests[name]}")


def reference():
    """Fixed pure-Python work (Fraction arithmetic, dict updates); shares no code with spinhl."""
    acc = Fraction(0)
    seen = {}
    for k in range(1, 41):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1)
        seen[(k, k % 7)] = acc.numerator % 97
    return acc, len(seen)


def timed_reference():
    """Seconds one reference() call takes, with the garbage collector off."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    reference()
    took = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return took


class SpeedSampler:
    """Samples the interpreter's speed while the measured code runs.

    This host's speed drifts by tens of percent within seconds (shared
    cores), which no run length averages away.  So a SIGALRM timer runs
    reference() every PERIOD seconds in the measured process itself, and a
    timing is scaled by REF_NOMINAL_S over the median reference time of the
    samples taken while it ran.  The garbage collector is off during a
    sample, so a collection of the measured program's heap, or a change to
    its gc settings, cannot slow or speed the reference.  ``clock()``
    excludes the time spent in samples, so durations read from it are the
    measured code's alone.
    Raw (unscaled) times are reported alongside.
    """

    PERIOD = 0.025
    MARGIN = 0.1  # also use samples this close to either end of a timing

    def __init__(self):
        self.at = []  # clock() at each sample
        self.took = []  # seconds of reference() per sample
        self.spent = 0.0
        self._busy = False

    def start(self):
        for _ in range(5):  # the first calls run cold and would skew the first sample
            reference()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        at = self.clock()
        took = timed_reference()
        self.at.append(at)
        self.took.append(took)
        self.spent += took
        self._busy = False

    def clock(self):
        return time.perf_counter() - self.spent

    def setup_factor(self, calls=8):
        """REF_NOMINAL_S over the median of every sample so far plus `calls` fresh ones.

        Used for set-up time: samples taken during the imports run with cold
        caches, so the median (not the mean) and a warm burst at the end keep
        a few slow ones from misjudging the machine's speed.
        """
        self._busy = True  # no tick inside the burst
        took = self.took + [timed_reference() for _ in range(calls)]
        self._busy = False
        return REF_NOMINAL_S / statistics.median(took)

    def factor(self, t0, t1):
        """REF_NOMINAL_S over the median sample in [t0 - MARGIN, t1 + MARGIN] (else the nearest)."""
        lo = bisect.bisect_left(self.at, t0 - self.MARGIN)
        hi = bisect.bisect_right(self.at, t1 + self.MARGIN)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(self.took), lo + 1)
        took = self.took[lo:hi]
        return REF_NOMINAL_S / statistics.median(took) if took else 1.0

    def scaled(self, seconds, t0, t1):
        return seconds * self.factor(t0, t1)
