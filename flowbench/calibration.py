"""A fixed piece of work, timed after every operation, that tracks how fast
the machine runs at that moment.

On a shared VM the speed of the whole machine drifts by 10 to 30% over
seconds to minutes (README.md, "Machine-speed normalisation"), more
than a benchmark bound can allow.  Each workload times a kernel of its
own kind of work before its first operation and after every operation,
built from the benchmark's reference code: a closed-form signal of 1e6
samples (the size of the observables' grid) and its statistics, and a
1e5-sample spectral-norm signal, for `verdicts`; a Philox census
recount for `exact`.  The kernel imports nothing from benflow and its inputs are
fixed, so a change to benflow cannot move it; the ratio of an
operation's time to the kernel's time around it moves with the program
and much less with the machine.  Timings are reported at the reference
speed: latency * REFERENCE_S / (mean of the kernel runs just before and
just after the operation).
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import reference as ref

# Median kernel time inside a run on the 2-core x86_64 VM the benchmark
# was built on.  They only fix the scale of the reported figures;
# changing them rescales every run alike.
REFERENCE_S = {"verdicts": 0.50, "exact": 0.0016}

# Set-up time is scaled the same way, by a fresh python3 that imports
# numpy alone (no benflow), started just before each measured set-up;
# IMPORT_REFERENCE_S is its median wall time on the same VM.
IMPORT_PROBE = "import numpy"
IMPORT_REFERENCE_S = 0.16

_BLOCKS = (("spiral", 1.2, 2.5), ("spiral", 0.5, 1.0))
_NORM_BLOCKS = (("spiral", 1.0, 2.0), ("real", 0.3))
_REPORT = {"base": 10, "thresholds": {"zero_rel": 1e-13}, "weyl_magnitudes": [0.0] * 5}


class Kernel:
    """The kernel itself, run in whichever process holds it."""

    def __init__(self, workload: str):
        rng = np.random.default_rng([0, 1])
        self.workload = workload
        self.s4 = ref.random_similarity(rng, 4)
        self.c4 = rng.standard_normal((4, 4))
        self.s3 = ref.random_similarity(rng, 3)
        self.t = np.arange(1, 1_000_001) * 1e-2 if workload == "verdicts" else None
        self.keys = [int(k) for k in rng.integers(0, 2**63, size=2)]

    def _signals(self) -> None:
        logb = ref.log_observable(_BLOCKS, self.s4, self.c4, self.t, 10)
        ref.statistics(logb, _REPORT)
        ref.log_norm(_NORM_BLOCKS, self.s3, "spectral", self.t[:100_000], 10)

    def _census(self) -> None:
        ref.census_recount(4, "gaussian", 12, self.keys[0], 1e-8)
        ref.census_recount(3, "int1", 12, self.keys[1], 1e-8)

    def time(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        if self.workload == "verdicts":
            self._signals()
        else:
            self._census()
        return time.perf_counter() - t0


class Calibration:
    """Times the workload's kernel on request.  The `exact` kernel runs in
    this process.  The `verdicts` kernel runs in a helper process started
    here, one call at a time while this process waits, so that its
    arrays of 1e6 samples do not add to this process's peak memory."""

    def __init__(self, workload: str):
        self.reference = REFERENCE_S[workload]
        self._kernel = self._helper = None
        if workload == "verdicts":
            self._helper = subprocess.Popen([sys.executable, __file__, workload], stdin=subprocess.PIPE,
                                            stdout=subprocess.PIPE, text=True)
        else:
            self._kernel = Kernel(workload)

    def time(self) -> float:
        """Seconds the kernel takes now."""
        if self._helper is None:
            return self._kernel.time()
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def close(self) -> None:
        """Ends the helper process, if any, and waits for it."""
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait()
            self._helper.stdout.close()


if __name__ == "__main__":
    # Helper process: one kernel run per input line, its time on stdout.
    kernel = Kernel(sys.argv[1])
    for _ in sys.stdin:
        print(kernel.time(), flush=True)
