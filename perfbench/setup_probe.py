"""Child process for set-up timing: import the CLI and parse one scenario.

Usage: python3 setup_probe.py <src dir> <scenario file>

While it imports and parses, a timer signal runs ``loop_probe()`` every
``TICK_S``, as ``run.py`` does during ops, but with the interpreted loop
alone, since numpy is not imported yet.  It prints one JSON line: the
seconds spent in probes during the work, and the mean probe time around
and during it.
"""

import json
import signal
import sys
import time

LOOP = 1500
END_PROBES = 4  # probes just before and just after the timed work
TICK_S = 0.01  # probe interval during it


def loop_probe() -> float:
    """Seconds for a fixed interpreted loop that shares no code with the package."""
    start = time.perf_counter()
    total = 0.0
    for i in range(LOOP):
        total += i * 0.5
    return time.perf_counter() - start


def main() -> None:
    samples = [loop_probe() for _ in range(END_PROBES)]
    ticks: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(loop_probe()))
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    sys.path.insert(0, sys.argv[1])
    from impulsive_logistic import cli

    cli.load_config(sys.argv[2])
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    samples += ticks + [loop_probe() for _ in range(END_PROBES)]
    print(json.dumps({"ticked_s": sum(ticks), "probe_s": sum(samples) / len(samples)}))


if __name__ == "__main__":
    main()
