"""The calibration loop: a fixed pure-Python loop that calls no library
code.  It imports nothing beyond ``time``, so the set-up probe can time the
library's cold import next to it in a fresh interpreter."""

import time

ITERATIONS = 100_000


def calibration_loop() -> float:
    """Wall seconds of the loop: the machine's current speed at
    interpreter-bound work."""
    start = time.perf_counter()
    buf = [0] * 1024
    acc = 0

    def step(a, b):
        return (a * 31 + b) % 1000003

    for i in range(ITERATIONS):
        j = (i * 7919) & 1023
        buf[j] = step(buf[j], i)
        acc ^= buf[(j + 1) & 1023]
    return time.perf_counter() - start
