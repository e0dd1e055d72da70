"""Run the program's CLI with the benchmark's span wrappers installed.

    python3 perfbench/traced.py SPAN_DIR <repro arguments...>

The same arguments as ``python3 -m repro <repro arguments...>``; the
wrappers of :mod:`tracing` are the only difference.  Each program
process writes its spans into ``SPAN_DIR`` when it shuts down.
"""

from __future__ import annotations

import sys

import tracing


def main() -> int:
    tracing.install(sys.argv[1])
    from repro.cli import main as cli_main

    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
