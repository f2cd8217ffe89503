"""Machine-speed reference for the untraced timings.

On shared hardware, such as the 2-vCPU virtual machine the benchmark was built
on, the CPU runs in a fast and a slow state, 1.6-2x apart for dict- and
set-heavy Python, in episodes from a fraction of a second to minutes, and
every computation in the process slows at once. Raw seconds therefore move
with the machine's state, not only with the code. `RefClock` samples that
state all through a run: every `PERIOD` seconds a SIGALRM handler times a
fixed reference computation (dict, set and sort work and a small recursive
search, the kinds of work besforge does). `scale(t0, t1)` turns an
operation's interval into reference seconds: its own time, without the
reference samples taken inside it, times
`REF_NOMINAL / mean(reference time around the operation)`. A reference
second is a second of a machine on which the reference takes `REF_NOMINAL`.
The code under test never runs inside the reference, so a faster program
reads faster and a faster machine does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD = 0.03  # seconds between reference samples
REF_NOMINAL = 0.0007  # about the reference's time on the machine the benchmark was built on
PAD = 2 * PERIOD  # samples this close to an operation also measure its speed

_PAIRS = [((i * 7919) % 600, (i * 104729 + 13) % 600) for i in range(250)]
_N = 40
_CONFLICTS = {u: frozenset(v for v in range(_N)
                           if v != u and 0 in ((u * 31 + v * 17) % 7, (v * 31 + u * 17) % 7))
              for u in range(_N)}


def reference():
    """A fixed computation of about 0.7 ms on that machine: dict/set/sort
    work, then a recursive search over frozensets."""
    adj = {}
    for u, v in _PAIRS:
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    order = sorted(adj, key=lambda x: (len(adj[x]), x))
    top = adj[order[-1]]
    total = sum(len(adj[x] & top) for x in order)

    def search(chosen, free, depth):
        nonlocal total
        total += len(chosen)
        if depth < 4:
            for v in sorted(free)[:3]:
                search(chosen + (v,), free - _CONFLICTS[v] - {v}, depth + 1)

    search((), frozenset(range(_N)), 0)
    return total


class RefClock:
    """Reference samples taken while the clock runs, as a context manager."""

    def __init__(self):
        self.starts = []  # sample start, end and warm reference time
        self.ends = []
        self.refs = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        """Run the reference twice and time the second, warm, pass."""
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        reference()
        t2 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.refs.append(t2 - t1)

    def own(self, t0, t1):
        """Seconds in [t0, t1] outside the reference samples taken inside it."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1)
        return t1 - t0 - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scale(self, t0, t1):
        """The time of [t0, t1] outside the samples, in reference seconds."""
        lo = bisect.bisect_left(self.ends, t0 - PAD)
        hi = bisect.bisect_right(self.starts, t1 + PAD)
        if lo >= hi:
            raise RuntimeError("no reference sample near an operation")
        return self.own(t0, t1) * REF_NOMINAL / statistics.fmean(self.refs[lo:hi])
