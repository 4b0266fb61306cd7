"""A clock for timings that keep less of the machine's speed drift.

On the shared 2-core machine the benchmark was written on, a fixed piece of
pure-Python work takes between 0.6x and 1.1x of its median from one second to
the next, and the medians of ten runs moved by 20 to 35 % over twenty
minutes.  CPU time moves with wall time (the process is slowed, not
descheduled), so ``time.process_time`` keeps all of it.  A fixed reference
loop of the same kind of work as the library (``Fraction`` arithmetic in a
dict keyed by tuples) slows down with it, so ``start`` runs that loop from a
``SIGALRM`` handler every ``PERIOD_S`` seconds, in the benchmark's own thread,
between the library's bytecodes.

``now`` reads seconds at a fixed reference speed: the time between two
samples, less the time spent in the loop, is multiplied by ``REF_S`` over the
mean duration of the last ``WINDOW`` samples.  Scaling each stretch by the
speed measured around it, rather than the whole run by its mean speed, keeps
a run whose speed differs between its phases from reading fast or slow.
The loop uses only the standard library; the library must not patch it.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from fractions import Fraction

PERIOD_S = 0.05
WINDOW = 20  # samples, about one second, averaged for the current speed
REF_S = 1e-3  # nominal seconds of one reference loop: scaled times read as seconds at that speed

_A = tuple(Fraction(i + 1, 2 * i + 3) for i in range(12))
_recent: deque = deque(maxlen=WINDOW)
_calls = 0
_spent = 0.0  # seconds inside the reference loop since start
_factor = 1.0  # REF_S / mean of _recent
_mark = 0.0  # perf_counter() at the end of the last sample
_virtual = 0.0  # scaled seconds up to _mark


def reference() -> dict:
    out = {}
    for i, x in enumerate(_A):
        for j, y in enumerate(_A):
            k = (i + j, i * j % 3)
            out[k] = out.get(k, 0) + x * y
    return out


def _sample(signum, frame):
    global _calls, _spent, _factor, _mark, _virtual
    t0 = time.perf_counter()
    reference()
    t1 = time.perf_counter()
    _virtual += (t0 - _mark) * _factor
    _mark = t1
    _recent.append(t1 - t0)
    _factor = REF_S * len(_recent) / sum(_recent)
    _spent += t1 - t0
    _calls += 1


def now() -> float:
    """Seconds at the reference speed since ``start``, the reference loop excluded."""
    while True:
        calls = _calls
        t = time.perf_counter()
        value = _virtual + (t - _mark) * _factor
        if calls == _calls:  # no sample ran in between
            return value


def factor() -> float:
    """Reference seconds per second of this process at the current speed."""
    return _factor


def start():
    global _mark
    _mark = time.perf_counter()
    _sample(None, None)  # a first speed estimate before the timer fires
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def summary() -> str:
    mean = _spent / _calls if _calls else 0.0
    return f"reference loop: {_calls} samples, mean {mean * 1e3:.4f} ms (nominal {REF_S * 1e3:g} ms)"
