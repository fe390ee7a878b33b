"""A fixed reference load that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds and over minutes, longer than one run.  A pass time alone then
measures the machine as much as the program.  So while a job runs,
`SpeedSampler` interrupts it every `INTERVAL_S` seconds of wall time to time
one unit of this load, and `pass_norm_s` rescales the job's own time by the
speed those samples saw (see `SpeedSampler.factor`).

The load is sparse polynomial arithmetic of the program's own kind (dicts
keyed by exponent tuples, `Fraction` coefficients, degrevlex sort keys), but
written here and never calling `invbases`, so a change to the program leaves
it alone.  Its inputs are fixed, not drawn from the benchmark's seed: every
run does exactly the same work.
"""
from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

NVARS = 6
# Wall time of one calibration unit on the reference machine: `pass_norm_s`
# is the time a pass would take on a machine that runs a unit in this long.
UNIT_REF_S = 0.010
# Wall time between two samples while a job runs: about 5% of the job's time.
INTERVAL_S = 0.2


def _key(exps: tuple[int, ...]) -> tuple:
    """Degrevlex sort key: total degree, then reversed negated exponents."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _poly(rng: random.Random, terms: int, deg: int) -> dict:
    poly = {}
    while len(poly) < terms:
        exps = tuple(rng.randint(0, deg) for _ in range(NVARS))
        poly[exps] = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
    return poly


class Calibration:
    """Reduces fixed polynomials by a fixed divisor set; `run()` returns the
    wall time of one unit of that work."""

    def __init__(self):
        rng = random.Random(1306)
        self.divisors = [_poly(rng, 6, 2) for _ in range(4)]
        self.inputs = [_poly(rng, 14, 3) for _ in range(3)]

    def _unit(self) -> int:
        """Top-reduce every input by the divisors for a fixed number of steps
        (a step multiplies a divisor by a term and subtracts it); returns the
        number of terms left."""
        total = 0
        for f in self.inputs:
            f = dict(f)
            for step in range(24):
                if not f:
                    break
                lead = max(f, key=_key)
                lc = f[lead]
                g = self.divisors[step % len(self.divisors)]
                glead = max(g, key=_key)
                shift = tuple(max(a - b, 0) for a, b in zip(lead, glead))
                c = lc / g[glead]
                for exps, coeff in g.items():
                    m = tuple(a + b for a, b in zip(exps, shift))
                    v = f.get(m, Fraction(0)) - c * coeff
                    if v:
                        f[m] = v
                    else:
                        f.pop(m, None)
                # The shifted divisor need not cancel the lead; drop it so
                # that every step moves on.
                f.pop(lead, None)
            total += len(f)
        return total

    def run(self) -> float:
        start = time.perf_counter()
        self._unit()
        return time.perf_counter() - start


class SpeedSampler:
    """Samples the machine's speed while the code in its `with` block runs.

    A SIGALRM timer fires every `INTERVAL_S` seconds of wall time; its handler
    times one calibration unit.  `busy` is the time spent in the handler,
    which the caller takes off the block's wall time.  The program is pure
    Python with no threads and no blocking system calls, so the handler runs
    between two of its bytecodes and changes none of its results.  The
    handler stays installed for the sampler's process; the block only arms
    and disarms the timer, so a signal still pending at the block's end
    finds the handler, not the default action.
    """

    def __init__(self):
        self.calibration = Calibration()
        self.samples: list[float] = []
        self.busy = 0.0
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.calibration.run())
        self.busy += time.perf_counter() - start

    def sample(self) -> None:
        """One sample outside the block, so that a job shorter than the
        interval still has one next to it."""
        self.samples.append(self.calibration.run())

    def __enter__(self) -> "SpeedSampler":
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> tuple[list[float], float]:
        """The samples and handler time gathered since the last call."""
        samples, busy = self.samples, self.busy
        self.samples, self.busy = [], 0.0
        return samples, busy

    @staticmethod
    def factor(samples: list[float]) -> float:
        """Reference speed over the machine's mean speed in the samples: a
        time measured alongside them, times this factor, is the time the
        reference machine would take."""
        return UNIT_REF_S * sum(1.0 / d for d in samples) / len(samples)
