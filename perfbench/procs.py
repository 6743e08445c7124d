"""A ``python -m repro serve`` subprocess and its CPU and memory accounting.

The server runs in its own session, so its pool workers share its process
group; :meth:`ServerProcess.stop` asks for a clean shutdown first (which
unlinks the shared-memory graph segments) and kills the group only when
that fails, then waits until every process of the group has ended.

Helpers can outlive their parent: the server's multiprocessing resource
tracker exits after the server does.  The benchmark therefore makes
itself a child subreaper (:func:`become_subreaper`), so such orphans are
reparented to it and waited for here instead of being left to init.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Have orphaned descendants reparented to this process; ``False``
    where the kernel does not offer it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields restart after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def _processes():
    """``(pid, state, ppid, pgid)`` of every process."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields:
                yield int(entry), fields[0], int(fields[1]), int(fields[2])


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def group_members(pgid: int) -> list[int]:
    """Processes of group ``pgid`` that have not ended: live ones, and
    zombies this process has still to wait for (which it reaps here)."""
    me = os.getpid()
    members = []
    for pid, state, ppid, group in _processes():
        if group != pgid:
            continue
        # The group leader is the server, which its Popen waits for.
        if state == "Z" and ppid == me and pid != pgid:
            _reap(pid)
        if state != "Z" or ppid == me:
            members.append(pid)
    return members


def reap_children(grace_s: float = 5.0) -> None:
    """End every remaining child of this process (orphans reparented to
    it included): wait ``grace_s``, then kill, and wait for each."""
    me = os.getpid()
    deadline = time.monotonic() + grace_s
    while True:
        children = [
            (pid, state) for pid, state, ppid, _ in _processes()
            if ppid == me
        ]
        if not children:
            return
        for pid, state in children:
            if state == "Z":
                _reap(pid)
            elif time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def cpu_seconds(pids) -> float:
    """User plus system CPU time of ``pids``."""
    total = 0.0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServerProcess:
    """One ``repro serve`` process with the benchmark's fixed settings."""

    def __init__(self, root: Path, scratch: Path, *, telemetry: bool) -> None:
        self.root = root
        self.scratch = scratch
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_KERNEL"] = "python"
        env.pop("REPRO_TELEMETRY", None)
        if telemetry:
            env["REPRO_TELEMETRY"] = "1"
        self.env = env
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 30.0) -> int:
        """Spawn the server and return its port once it is listening."""
        port_file = self.scratch / f"port-{os.getpid()}-{time.monotonic_ns()}"
        self.log_path = port_file.with_suffix(".log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0", "--port-file", str(port_file),
                    "--ttl", "60", "--slow-request-ms=-1",
                ],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}: "
                    f"{self.log_tail()}"
                )
            if port_file.exists() and port_file.read_text().strip():
                port = int(port_file.read_text())
                port_file.unlink()
                return port
            time.sleep(0.005)
        raise RuntimeError(f"server not listening after {timeout}s")

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-2000:].strip() or "(no output)"
        except OSError:
            return "(no log)"

    def tree(self) -> list[int]:
        """The server, its pool workers and their helpers."""
        return group_members(self.proc.pid)

    def stop(self, timeout: float = 15.0) -> None:
        """Wait for a requested shutdown, escalating to SIGINT and then to
        SIGKILL of the whole group; return once every member has ended."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(5.0)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # After a clean exit the multiprocessing helpers finish on their
        # own (the resource tracker unlinks leftover segments); only
        # stragglers past the deadline are killed.
        for _ in range(2):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not group_members(proc.pid):
                    if proc.returncode == 0:
                        self.log_path.unlink(missing_ok=True)
                    return
                time.sleep(0.01)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
        raise RuntimeError(f"server process group {proc.pid} did not end")
