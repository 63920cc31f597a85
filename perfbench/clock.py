"""Timings in reference seconds, steadied by an interleaved kernel.

On shared hosts the CPU's speed drifts: on the 2-core VM this benchmark
was written on, a fixed pure-Python loop ran up to 30% slower for tens
of seconds at a time while nothing else ran in the VM.  Such drift moves
every timing of a run together, so the benchmark runs a fixed
calibration kernel (harness code only, never the package) right before
and after every timed call and reports

    reference seconds = measured seconds * REF_S / kernel seconds,

the time the call would take on a machine where the kernel takes
``REF_S``.  A change to the package moves the measured time but not
the kernel's, so it shows in full.  Raw seconds are kept in the detailed
result next to every scaled value.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(12345)
_COEFFS = _rng.normal(size=64) + 1j * _rng.normal(size=64)
_INDICES = [(i % 4, i // 4 % 4, i // 16) for i in range(64)]
_INDEX_MAP = {alpha: pos for pos, alpha in enumerate(_INDICES)}
_VALUES = _rng.normal(size=80)
_COND = np.abs(_rng.normal(size=(80, 80)))
_TALL = _rng.normal(size=(128, 20)) + 1j * _rng.normal(size=(128, 20))

# kernel time on the reference machine; a kernel is 12 units of ~0.5 ms
REF_S = 0.006


def kernel(mix: tuple) -> float:
    """Run ``mix = (python, array, lapack)`` units of the three kinds of work.

    Kinds of work slow down by different amounts when the host is busy,
    so each workload's kernel mixes them roughly as its own time splits
    at the defining commit.  A python unit is interpreted loops over
    index tuples with numpy scalar reads (as in the chaos ladder
    operators), an array unit small elementwise expressions (as in the
    network energy form), a lapack unit a full complex SVD (as in the
    modular commutant).
    """
    python, array, lapack = mix
    acc = 0.0
    for _ in range(14 * python):
        for pos, alpha in enumerate(_INDICES):
            up = list(alpha)
            up[0] += 1
            acc += abs(_COEFFS[pos]) * _INDEX_MAP.get(tuple(up), 0)
    for _ in range(20 * array):
        du = _VALUES[:, None] - _VALUES[None, :]
        acc += float(0.5 * np.sum(_COND * du * du))
    for _ in range(lapack):
        acc += float(np.linalg.svd(_TALL)[1][0])
    return acc


class Clock:
    """Scales measured seconds by the kernel time measured around them.

    The reference for a call is the median of the kernel runs of the
    last ``WINDOW_S`` seconds, and at least of the runs right before and
    right after the call.  Several runs damp the kernel's own jitter on
    short calls; the window stays short next to the host's drift, which
    holds for tens of seconds.
    """

    WINDOW_S = 1.5

    def __init__(self, mix: tuple):
        self.mix = mix
        kernel(mix)  # first-call costs stay off the reference
        self.samples = [self._sample() for _ in range(2)]

    def _sample(self) -> tuple:
        t0 = time.perf_counter()
        kernel(self.mix)
        t1 = time.perf_counter()
        return t1, t1 - t0

    def scale(self, raw: float) -> float:
        """Reference seconds for a call that just took ``raw`` seconds."""
        self.samples.append(self._sample())
        start = self.samples[-1][0] - self.WINDOW_S
        recent = [k for _, k in self.samples[-2:]]
        for t, k in reversed(self.samples[:-2]):
            if t < start:
                break
            recent.append(k)
        return raw * REF_S / statistics.median(recent)

    def scale_now(self, raw: float) -> float:
        """Scale by five fresh kernel runs (for set-up time)."""
        self.samples.extend(self._sample() for _ in range(5))
        ref = statistics.median(k for _, k in self.samples[-5:])
        return raw * REF_S / ref
