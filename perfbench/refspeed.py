"""Timing at reference speed, for machines whose speed drifts.

On a shared 2-vCPU x86-64 VM the speed of CPU-bound work drifted by up to 2x
within seconds, in step for all such work, with no CPU time stolen (process
CPU time moved with wall time). Every timing is therefore taken together with
samples of a fixed slice of reference work, run in the same process while the
timed code runs: `Timer` interrupts it every INTERVAL_S (SIGALRM) to time one
slice, and once more at each end. It reports the elapsed time minus the time
spent in those slices, scaled to reference speed: seconds * REFERENCE_S /
(mean slice time). REFERENCE_S is a fixed unit; on that VM a run's median
scale factor was 0.40-0.67, so reported times are about half of wall times
there. The reference does not depend on semverdiff; beyond what a fresh
interpreter has loaded it imports only `signal`, which semverdiff does not
import.
"""

import re
import signal
import time

REFERENCE_S = 0.0012
INTERVAL_S = 0.02
_REF_RE = re.compile(r"[ \t]+|\n|//[^\n]*|\"(?:[^\"\\\n]|\\.)*\"|\d+|[A-Za-z_]\w*|[^\s\w]")
_REF_TEXT = ("func Step(n int) int {\n\tacc := 0 // note\n\tfor i := 0; i < n; i++ { acc += i * 7 }\n"
             '\tlabel := fmt.Sprintf("%d", acc)\n\treturn acc + len(label)\n}\n') * 8
# Scattered reads from a buffer twice the size of a core's L2 cache on that VM:
# memory-bound work drifts with the program's parsing, which the regex part
# alone did not follow closely.
_REF_BUFFER = bytes(range(256)) * (1 << 14)
_REF_READS = [(i * 2_654_435_761) % len(_REF_BUFFER) for i in range(8000)]  # scattered, not sequential


def reference() -> float:
    """Seconds taken by a fixed mix of regex scanning, dict work and random memory reads."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    for m in _REF_RE.finditer(_REF_TEXT):
        word = m.group()
        counts[word] = counts.get(word, 0) + m.start()
    buffer, acc = _REF_BUFFER, 0
    for i in _REF_READS:
        acc += buffer[i]
    return time.perf_counter() - started


class Timer:
    """Times a block at reference speed; `with Timer() as t: ...`, then t.seconds.

    Only one may be active at a time, in the main thread. `clock()` reads a
    perf_counter that stands still while a reference slice runs, so spans
    taken with it inside the block leave the slices out too.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.slices: list[float] = []
        self.overhead = 0.0
        self.wall_seconds = self.seconds = self.scale = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.slices.append(reference())
        self.overhead += time.perf_counter() - started

    def clock(self) -> float:
        while True:
            overhead = self.overhead
            now = time.perf_counter()
            if overhead == self.overhead:  # no slice ran between the two reads
                return now - overhead

    def __enter__(self) -> "Timer":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._started = self.clock()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_seconds = self.clock() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self.scale = REFERENCE_S * len(self.slices) / sum(self.slices)
        self.seconds = self.wall_seconds * self.scale
