"""Run one ``provsim`` command and time its calls into the simulation kernel.

Usage: python3 perfbench/provsim_cmd.py TIMINGS_FILE PROVSIM_ARGS...

This is the ``provsim`` console entry point (``provsim.cli:main``) with one
timer around ``provsim.simkernel.run``. TIMINGS_FILE gets a ``start`` line
with the clock reading taken before provsim is imported, then one ``run``
line with entry and exit readings per kernel call. Sweep workers forked by
the command inherit the timer and append to the same file. Readings are
``time.perf_counter()``, a system-wide monotonic clock on Linux, so lines
from different processes compare.
"""

import sys
import time

START = time.perf_counter()


def main() -> int:
    timings = sys.argv[1]
    with open(timings, "a") as stream:
        stream.write(f"start {START!r}\n")

    import provsim.cli
    import provsim.simkernel

    original = provsim.simkernel.run

    def timed_run(*args, **kwargs):
        entered = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            left = time.perf_counter()
            with open(timings, "a") as stream:
                stream.write(f"run {entered!r} {left!r}\n")

    for name, module in list(sys.modules.items()):
        if name == "provsim" or name.startswith("provsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, timed_run)
    return provsim.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
