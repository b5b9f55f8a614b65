"""A fixed pure-Python reference loop that measures the host's speed.

On a shared host the CPU a process gets runs faster or slower by ±20% over
seconds to minutes, and CPU time drifts with wall time.  The untraced run
times this loop between batches, for a fixed share of the batches' time, so
that it sees the same stretches of host speed as the program.  The program's
rate is then scaled by the loop's speed relative to `NOMINAL_UNIT_S`, which
cancels the drift.  The loop does what compgap's hot paths do: 64-bit
big-int mixing, small objects with slots, function and method calls, and
dict, set and list churn like a clause database.  It leaves out lookups at
scattered indices into large tables: their speed swings with the host's
cache pressure far more than compgap's does (up to 3x between runs, against
±20% for the workloads).  It is the benchmark's own code, so no change to
compgap moves it.
"""

from __future__ import annotations

from time import perf_counter

_MASK64 = (1 << 64) - 1
_CLAUSES = [((i * 7) % 97 + 1, -((i * 13) % 97 + 1), (i * 31) % 97 + 1)
            for i in range(300)]

# about the mean time of one unit on a 2-core Xeon VM with Python 3.11; only
# the scale of the reported rate depends on it, not its spread
NOMINAL_UNIT_S = 0.0025


class _Word:
    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        self.value = value
        self.length = length

    def mix(self, k: int) -> "_Word":
        z = ((self.value ^ (self.value >> 30)) * 0xBF58476D1CE4E5B9 + k) \
            & _MASK64
        return _Word(z ^ (z >> 31), self.length)


def _step(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def unit() -> int:
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    w = _Word(0x9E3779B97F4A7C15, 64)
    table = {}
    tops = []
    for i in range(1000):
        w = w.mix(i)
        table[w.value & 1023] = w
        if i & 3 == 0:
            tops.append(w.value >> 40)
    tops.sort()
    watch: dict = {}
    for ci, clause in enumerate(_CLAUSES):
        for lit in clause:
            watch.setdefault(lit, []).append(ci)
    assign = {}
    hits = 0
    for v in range(1, 98):
        assign[v] = v & 1
        for ci in watch.get(-v if v & 1 else v, ()):
            hits += any(assign.get(abs(lit)) == (lit > 0)
                        for lit in _CLAUSES[ci])
    acc = 1
    for i in range(1500):
        acc = _step(acc, i) ^ (acc >> 3)
    return sum(tops) + len(table) + hits + acc


class Reference:
    """Units run and time spent on them over one run."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> None:
        """Run whole units until at least `seconds` (and one unit) passed."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            unit()
            spent += perf_counter() - t0
            self.units += 1
            if spent >= seconds:
                break
        self.seconds += spent

    def speed(self) -> float:
        """Host speed relative to nominal: 1.0 at NOMINAL_UNIT_S a unit,
        below 1 when the host runs slower."""
        return NOMINAL_UNIT_S * self.units / self.seconds
