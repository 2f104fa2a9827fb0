"""Host-speed probe used to normalise the end-to-end timings.

On a shared host the interpreter's speed drifts: a fixed input ran
1.5x faster in one minute than in the next on the 2-core box this
benchmark was tuned on, and run medians varied by more than the
benchmark's bounds.  Each sample therefore times a fixed piece of
interpreter work -- compiling and executing a generated module, the
same kind of work as importing one -- before it imports anything from
``src/``, so the probe cannot depend on the code under test.  A
workload that runs simulations on several worker processes is probed on
as many processes at once, because its speed is that of all the cores
it keeps busy, not only the core of its parent process.

Multiplying host seconds measured soon after the probe by
``speed() / REFERENCE_SPEED`` gives seconds on a reference host that
runs the probe ``REFERENCE_SPEED`` times per second.
"""

import multiprocessing
import statistics
import time

#: Probe rounds per second of the reference host (any fixed value works;
#: this one keeps normalised figures close to this box's raw ones).
REFERENCE_SPEED = 40.0

_SOURCE = "\n".join(
    f"def f{i}(a, b=2, *c, **d):\n"
    f"    x = [a * j + b for j in range(8)]\n"
    f"    return {{'k{i}': sum(x), 'v': (a, b, c, d)}}\n"
    f"class C{i}:\n"
    f"    __slots__ = ('p', 'q')\n"
    f"    def m(self, y):\n"
    f"        return y + {i}\n"
    for i in range(150))


def _probe(rounds):
    """Median probe rounds per second over ``rounds`` timed rounds."""
    rates = []
    for _ in range(rounds):
        start = time.perf_counter()
        exec(compile(_SOURCE, "<hostspeed>", "exec"), {})
        rates.append(1.0 / (time.perf_counter() - start))
    return statistics.median(rates)


def speed(processes=1, rounds=7):
    """Probe speed of the cores a workload of ``processes`` parallel
    simulations runs on: the mean over that many concurrent probes."""
    if processes == 1:
        return _probe(rounds)
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes) as pool:
        return statistics.mean(pool.map(_probe, [rounds] * processes,
                                        chunksize=1))
