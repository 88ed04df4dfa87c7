"""Machine-speed probe: reports times in seconds at a reference speed.

On a shared machine the speed of one core swings by 10-40%, within tens
of milliseconds and over minutes, as other tenants load the host; the
swing moves every timing alike.  The
probe runs a fixed loop of integer and float arithmetic that uses no
code of ``arithinv``, so no change to the program changes its cost.
It runs before every operation, for a tenth of the time of the one
before it and at least MIN_S, and after the last, and counts how many
loops fit in its time.  An operation that ran while the probe's samples
just before and after it averaged ``rate`` loops per second is reported
as

    seconds * rate / REF_RATE

that is, the seconds the same work takes when the probe runs at
``REF_RATE``; a pass's wall time is scaled by the mean rate of all its
samples.  Because of the fast swings the samples sit right next to the
operations.  Raw times stay in the run record next to the scaled ones.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median probe loops per second on a 2-core 2.0 GHz Xeon VM.
REF_RATE = 14000.0

SHARE = 0.1  # probe time per unit of operation time
MIN_S = 0.02  # shortest sample


def _loop():
    total, x = 0, 1.0
    for i in range(1, 400):
        total += i * i % 7
        x = (x * 1.0000001 + 1.0 / i) % 1000.0
    return total, x


class Probe:
    """The probe samples taken in one pass."""

    def __init__(self):
        self.rates = []  # loops per second of each sample
        self.loops = 0
        self.seconds = 0.0  # time spent probing

    def sample(self, after_s=0.0):
        """Run the loop for SHARE * after_s (at least MIN_S), with the GC
        off; after_s is the operation time since the last sample."""
        seconds = max(MIN_S, SHARE * after_s)
        enabled = gc.isenabled()
        gc.disable()
        loops = 0
        try:
            start = perf_counter()
            while True:
                _loop()
                loops += 1
                elapsed = perf_counter() - start
                if elapsed >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()
        self.rates.append(loops / elapsed)
        self.loops += loops
        self.seconds += perf_counter() - start

    def op_scale(self, index):
        """Factor from raw to reference seconds for an operation that ran
        between samples `index` and `index + 1`."""
        return 0.5 * (self.rates[index] + self.rates[index + 1]) / REF_RATE

    def scale(self):
        """Factor from raw to reference seconds for a whole pass."""
        return self.loops / self.seconds / REF_RATE
