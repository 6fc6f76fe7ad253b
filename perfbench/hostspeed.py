"""Host-speed probe, so that runs on a shared host can be compared.

On a shared virtual machine the whole process runs faster or slower for
seconds to minutes at a time: the same campaign took from 3.3 s to 6.2 s
within five minutes, with no steal time and CPU time equal to wall time.
Each worker therefore times a fixed probe between trials, at most every
``PROBE_INTERVAL_S`` seconds.  The probe's mean time over one repetition,
divided by its reference time, is that repetition's slowdown, and the
harness divides the repetition's times by it.  Measured over repeated
campaigns of a few seconds each, this cut the coefficient of variation of
the campaign time from 0.10 to 0.03 in double precision and from 0.08 to
0.05 at 40 digits.

The probes are fixed code of the benchmark and never call the program, so
a change to the program moves its metrics and not the probes.  Each runs
theta's truncated product, the loop the workloads spend most time in, in
the workload's arithmetic.
"""

from __future__ import annotations

import time

PROBE_INTERVAL_S = 0.2

#: Median probe time on the host the benchmark was written on (2 vCPU,
#: Python 3.11, pure-Python mpmath); it only fixes the scale of the
#: reported times.
REFERENCE_S = {"double": 0.00102, "mp": 0.0052}


def _product(x, p, stop):
    """The truncated product at the heart of theta(x; p)."""
    acc = 1
    pk = 1
    while abs(pk) >= stop:
        acc = acc * (1 - x * pk) * (1 - p / x * pk)
        pk = pk * p
    return acc


def _double_work():
    """Sixty truncated products in complex doubles."""
    total = 0
    for k in range(60):
        total += _product(complex(0.5, 0.2) * (1 + k / 60), complex(0.1, 0.25), 1e-18)
    return total


def _mp_work():
    """One truncated product in 40-digit mpmath complex arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        return _product(mpmath.mpc("0.5", "0.2"), mpmath.mpc("0.1", "0.12"),
                        mpmath.mpf("1e-42"))


_WORK = {"double": _double_work, "mp": _mp_work}


def probe(kind: str) -> float:
    """Seconds taken by one run of the probe of this kind."""
    work = _WORK[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
