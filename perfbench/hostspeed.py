"""Host-speed reference for the benchmark's timed runs.

On a shared host the CPU speed can change by 1.5x or more in spells that
last from seconds to minutes, and every unit time moves with it.  A timed
run measures this fixed piece of work after each unit, outside the timed
region, and reports the unit's time scaled by ``REFERENCE_MS`` over the
reference time measured next to it: the time the unit would take on a host
where the reference takes ``REFERENCE_MS``.  The reference calls no
framescale code, so a change to framescale moves scaled and raw times alike.

Import this module only after the BLAS thread variables are set.
"""

import time

import numpy as np

# nominal reference time; one core of the baseline host (a 2.0 GHz Xeon)
# takes about 6 ms in its fast spells and up to 9 ms in its slow ones
REFERENCE_MS = 6.0

_rng = np.random.default_rng(0)
_WIDE = _rng.standard_normal((16, 4096))
_batch = _rng.standard_normal((64, 6, 6))
_BATCH = _batch + _batch.transpose(0, 2, 1)


def reference_ns() -> int:
    """Wall time of one pass of the reference work, in ns.

    The work mixes interpreted Python with small dense linear algebra, as
    the workloads do: on the baseline host it tracked their slow spells
    better than either part alone or a memory-bound pass over 4 MB.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    np.linalg.svd(_WIDE, full_matrices=False)
    np.linalg.eigvalsh(_BATCH)
    _WIDE @ _WIDE.T
    return time.perf_counter_ns() - start


def scaled(duration_ns: float, reference: float) -> float:
    """``duration_ns`` as it would read where the reference takes REFERENCE_MS."""
    return duration_ns * REFERENCE_MS * 1e6 / reference
