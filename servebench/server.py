"""Start, signal and stop the ``repro-server`` child process."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerError(Exception):
    """The server did not come up, or exited when it should not have."""


class ServerProcess:
    """One ``repro-server`` child serving ``root`` on an ephemeral port.

    Untraced: ``python -m repro.server.cli``. Traced: the same CLI
    behind ``servebench/tracer.py``, which wraps the layers first; both
    are a single child process with the same threads.
    """

    def __init__(self, checkout: str, root: str, log_path: str, trace_out: str | None = None) -> None:
        env = dict(os.environ)
        src = os.path.join(checkout, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if trace_out is None:
            launcher = ["-m", "repro.server.cli"]
        else:
            env["SERVEBENCH_TRACE_OUT"] = trace_out
            launcher = [os.path.join(checkout, "servebench", "tracer.py")]
        self.trace_out = trace_out
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, root, "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
            env=env,
            cwd=checkout,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        with open(self.log_path, encoding="utf-8") as handle:
            tail = handle.read()[-2000:]
        raise ServerError(f"server did not start listening:\n{tail}")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def dump_trace(self) -> str:
        """Ask the traced server to write its spans; returns the file."""
        if self.trace_out is None:
            raise ServerError("this server was started untraced")
        if os.path.exists(self.trace_out):
            os.remove(self.trace_out)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while not os.path.exists(self.trace_out):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ServerError("traced server wrote no spans")
            time.sleep(0.02)
        return self.trace_out

    def kill(self) -> None:
        """SIGKILL, then reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()
