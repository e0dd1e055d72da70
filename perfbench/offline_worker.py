"""The offline-25s program process: ``compute_spectrogram`` in a process of its own.

Driven over stdin/stdout, one command per line, so the benchmark can
time set-up and read ``/proc`` at the edges of the timed phase:

* prints ``ready`` once ``import repro`` has finished (set-up ends);
* ``load PATH WARMUP_S`` loads the trace pool (an ``.npz`` the
  benchmark wrote before starting this process), computes untimed for
  ``WARMUP_S`` seconds and prints ``warm CALLS``;
* ``go SECONDS`` cycles through the pool for ``SECONDS`` and prints one
  JSON line: per-call start/end times, windows per call, the process's
  CPU seconds from ``/proc`` after each call, and a SHA-256 of every
  distinct power image, which the benchmark compares with its own
  offline reference.  The process reads its own CPU time so that the
  benchmark need not poll ``/proc`` from a second process while this
  one's BLAS threads hold both cores;
* ``quit`` exits (after writing spans, when started with ``--trace DIR``).

Run: ``python3 perfbench/offline_worker.py [--trace SPAN_DIR]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import repro  # noqa: F401  (set-up ends when the package has imported)


def spectrogram_digest(spectrogram) -> str:
    """SHA-256 of a spectrogram's power image and estimator labels."""
    digest = hashlib.sha256(spectrogram.power.tobytes())
    digest.update("|".join(map(str, spectrogram.estimators)).encode())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    store = None
    if len(argv) == 2 and argv[0] == "--trace":
        import tracing

        store = tracing.install(argv[1])
    import numpy as np

    from repro.core import tracking

    config = tracking.TrackingConfig()
    pool: list = []
    print("ready", flush=True)
    # The benchmark's own module, imported after set-up has ended.
    from procs import read_proc
    for line in sys.stdin:
        command, *rest = line.split()
        if command == "load":
            with np.load(rest[0]) as data:
                pool = [data[name] for name in sorted(data.files)]
            deadline = time.perf_counter() + float(rest[1])
            calls = 0
            while calls < len(pool) or time.perf_counter() < deadline:
                tracking.compute_spectrogram(pool[calls % len(pool)], config)
                calls += 1
            print(f"warm {calls}", flush=True)
        elif command == "go":
            # Each image is compared with the first one of its trace
            # outside the timed call, so only those first images are
            # kept and hashed: memory stays what the program needs.
            calls = []
            first: dict[int, object] = {}
            mismatched = 0
            pid = os.getpid()
            start_cpu_s = read_proc(pid).cpu_s
            start = time.perf_counter()
            deadline = start + float(rest[0])
            while time.perf_counter() < deadline:
                index = len(calls) % len(pool)
                call_start = time.perf_counter()
                spectrogram = tracking.compute_spectrogram(pool[index], config)
                call_end = time.perf_counter()
                calls.append(
                    [index, call_start, call_end, spectrogram.num_windows, read_proc(pid).cpu_s]
                )
                seen = first.setdefault(index, spectrogram)
                if seen is not spectrogram and not (
                    np.array_equal(seen.power, spectrogram.power)
                    and np.array_equal(seen.estimators, spectrogram.estimators)
                ):
                    mismatched += 1
            print(
                json.dumps(
                    {
                        "start": start,
                        "start_cpu_s": start_cpu_s,
                        "end": calls[-1][2] if calls else start,
                        "calls": calls,
                        "digests": {
                            str(i): spectrogram_digest(s) for i, s in first.items()
                        },
                        "mismatched": mismatched,
                    }
                ),
                flush=True,
            )
        elif command == "quit":
            break
    if store is not None:
        store.dump()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
