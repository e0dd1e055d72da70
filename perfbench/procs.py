"""Program processes seen from outside: launch, readiness, ``/proc``, stop.

The benchmark starts the program as users do (``python3 -m repro serve``
or ``fleet``, or the offline worker), with ``src`` on ``PYTHONPATH`` and
no other change to the environment, and stops it with SIGINT, the CLI's
graceful path.  Readings of CPU time, peak resident memory and thread
count come from ``/proc`` for every program process, fleet workers
included.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

SERVE_READY = re.compile(r"^serve: listening on \S+ port (\d+)$")
FLEET_READY = re.compile(r"^fleet: listening on \S+ port (\d+)$")
FLEET_SHARD = re.compile(r"^fleet: shard (\S+) pid (\d+) port (\d+)$")


@dataclass(frozen=True)
class ProcReading:
    """One process at one moment."""

    cpu_s: float
    hwm_kb: int
    threads: int


def read_proc(pid: int) -> ProcReading:
    """CPU seconds (user + system, all threads), ``VmHWM`` and thread count."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after "pid (comm)": state is [0], utime [11], stime [12],
    # num_threads [17].
    cpu_s = (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
    threads = int(fields[17])
    hwm_kb = 0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
                break
    return ProcReading(cpu_s=cpu_s, hwm_kb=hwm_kb, threads=threads)


def host_cpu_jiffies() -> tuple[int, int]:
    """``(all, steal)`` CPU jiffies of the whole machine from ``/proc/stat``.

    Steal is time the hypervisor ran something else on this machine's
    CPUs: the host's noise, not the program's or the generator's.
    """
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return sum(fields[:8]), fields[7]


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


class Program:
    """One launched program: its main process and any workers it reports.

    Output goes to a log file in the run directory, never a pipe, so a
    chatty program can never block on a full pipe while it is measured.
    """

    def __init__(self, argv: list[str], cwd: Path, env: dict[str, str], log: Path):
        self.argv = argv
        self.log_path = log
        self._log = open(log, "wb")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.PIPE,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.port: int | None = None
        self.worker_pids: list[int] = []
        self._offset = 0
        self._partial = b""

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def pids(self) -> list[int]:
        return [self.pid, *self.worker_pids]

    def new_lines(self) -> list[str]:
        """Complete log lines written since the last call."""
        with open(self.log_path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        self._offset += len(data)
        data = self._partial + data
        *lines, self._partial = data.split(b"\n")
        return [line.decode("utf-8", "replace") for line in lines]

    def wait_for(self, matches, timeout_s: float, interval_s: float = 0.002) -> str:
        """Poll the log every ``interval_s`` until ``matches(line)`` is true.

        ``matches`` sees every new line in order; returns the matching line.

        Raises:
            RuntimeError: the program exited or the line did not come in time.
        """
        deadline = time.perf_counter() + timeout_s
        while True:
            for line in self.new_lines():
                if matches(line):
                    return line
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"{' '.join(self.argv[1:4])} exited with code "
                    f"{self.process.returncode}; log: {self.log_path.read_text()[-2000:]}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"no expected output within {timeout_s:.0f}s")
            time.sleep(interval_s)

    def wait_ready(self, matches, timeout_s: float) -> float:
        """:meth:`wait_for` the last set-up line; returns seconds since launch."""
        self.wait_for(matches, timeout_s)
        return time.perf_counter() - self.launched

    def send(self, line: str) -> None:
        """Write one command line to the program's stdin."""
        self.process.stdin.write((line + "\n").encode())
        self.process.stdin.flush()

    def readings(self) -> dict[int, ProcReading]:
        """``/proc`` readings of every program process still running."""
        out = {}
        for pid in self.pids:
            try:
                out[pid] = read_proc(pid)
            except (FileNotFoundError, ProcessLookupError):
                continue
        return out

    def quit(self, timeout_s: float = 30.0) -> list[str]:
        """Ask a stdin-driven program to ``quit``, then :meth:`stop` it."""
        if self.process.poll() is None:
            try:
                self.send("quit")
                self.process.wait(timeout=timeout_s)
            except (OSError, subprocess.TimeoutExpired):
                pass
        return self.stop()

    def stop(self, timeout_s: float = 30.0) -> list[str]:
        """SIGINT the program if it still runs, wait, and return what went wrong.

        A nonzero exit is reported, and anything still running after the
        grace period (the main process or a worker that outlived it) is
        killed and reported.
        """
        problems = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                problems.append("program did not exit within its SIGINT grace period")
                self.process.kill()
                self.process.wait(timeout=10)
        if not problems and self.process.returncode != 0:
            problems.append(f"program exited with code {self.process.returncode}")
        deadline = time.perf_counter() + 10.0
        for pid in self.worker_pids:
            while alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.01)
            if alive(pid):
                problems.append(f"worker {pid} outlived the program")
                os.kill(pid, signal.SIGKILL)
        if self.process.stdin is not None:
            self.process.stdin.close()
        self._log.close()
        return problems
