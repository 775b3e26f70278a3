"""Fixed reference work that measures how fast the host is running now.

``reference_burst`` is the reference for op times, ``reference_start`` the
one for set-up times.  Neither imports anything from ``diffpath``: a change
to the package never changes a reference.

The burst loop has the shape of the work the package does per denoiser call:
small numpy arrays, a softmax and a few Python-level steps.  So host
slowdowns that hit the package hit the loop the same way.  The loop is timed
in CPU time of the calling thread, not wall time.  A host slow phase
stretches that CPU time just as it stretches the package's work, but work of
other threads and processes on the same CPU, such as a ``diffpath serve``
child still busy after replying, does not count toward it.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_WEIGHTS = np.array([0.5, 0.3, 0.2])
_MEANS = np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]])
_VARIANCES = np.array([0.85, 0.75, 0.95])

ITERATIONS = 600

#: the burst time that defines the reference host speed; normalised times
#: are what an op would take on a host that runs one burst in this time
NOMINAL_BURST_S = 0.020

#: a fresh interpreter that imports the package's third-party dependencies,
#: the bulk of a set-up's import time
REFERENCE_START_ARGV = [sys.executable, "-c", "import numpy, scipy.special"]

#: the reference start time that defines the reference host speed for
#: set-ups
NOMINAL_START_S = 0.400


def reference_burst() -> float:
    """Run the reference loop once; return its thread CPU time in seconds."""
    started = time.thread_time()
    y = np.array([0.3, -0.2])
    for i in range(ITERATIONS):
        a = 0.5 + (i % 7) * 0.01
        var = a * _VARIANCES + (1.0 - a)
        resid = y - np.sqrt(a) * _MEANS
        log_resp = (np.log(_WEIGHTS) - np.log(2.0 * np.pi * var)
                    - 0.5 * np.einsum("kd,kd->k", resid, resid) / var)
        log_resp -= log_resp.max()
        resp = np.exp(log_resp)
        resp /= resp.sum()
        mean = resp @ (_MEANS + (np.sqrt(a) * _VARIANCES / var)[:, None] * resid)
        y = 0.999 * y + 0.001 * float(mean[0])
    return time.thread_time() - started


def reference_start() -> float:
    """Start the reference interpreter once; return its wall time in seconds.

    A set-up is interpreter start, imports and page faults, not numpy
    arithmetic.  This reference does the same kind of work, so it follows the
    host's speed for set-ups much more closely than the burst loop does.
    """
    started = time.perf_counter()
    subprocess.run(REFERENCE_START_ARGV, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - started
