"""Keep-alive HTTP/JSON client with per-operation failure accounting.

One :class:`Connection` is one persistent HTTP/1.1 socket. Every call is
timed from the first byte sent to the last byte read, and its outcome is
booked under an operation name: a non-2xx status, a timeout or a reset
counts as a failure of that operation, never as a slow success.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any

# A request slower than this is a failure (and a hung server must not
# hang the benchmark past its own exit deadline).
REQUEST_TIMEOUT_S = 60.0


class RequestFailed(Exception):
    """An operation ended in a non-2xx status, a timeout or a reset."""


@dataclass
class OpCounts:
    attempted: int = 0
    failed: int = 0
    statuses: dict[str, int] = field(default_factory=dict)


class Ledger:
    """Attempted/failed counts per operation type, shared by connections."""

    def __init__(self) -> None:
        self.ops: dict[str, OpCounts] = {}

    def book(self, op: str, outcome: str, ok: bool) -> None:
        counts = self.ops.setdefault(op, OpCounts())
        counts.attempted += 1
        counts.failed += 0 if ok else 1
        counts.statuses[outcome] = counts.statuses.get(outcome, 0) + 1

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.ops.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            op: {"attempted": c.attempted, "failed": c.failed, "outcomes": c.statuses}
            for op, c in sorted(self.ops.items())
        }


class Connection:
    """One keep-alive connection to the server.

    ``log`` keeps ``(method, path, start, end)`` for every request, on
    the ``time.perf_counter`` clock, so a traced run can pair each
    request with the server span that handled it.
    """

    def __init__(self, port: int, ledger: Ledger) -> None:
        self.port = port
        self.ledger = ledger
        self.log: list[tuple[str, str, float, float]] = []
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def close(self) -> None:
        self._conn.close()

    def request(
        self, op: str, method: str, path: str, body: Any = None, raw: bool = False
    ) -> tuple[Any, float]:
        """Send one request; returns ``(document, seconds)``.

        Raises :class:`RequestFailed` after booking the failure. A reset
        or timeout also drops the socket; the next call reconnects.
        """
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        try:
            self._conn.request(method, path, body=payload or None, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except TimeoutError as exc:
            self._conn.close()
            self.ledger.book(op, "timeout", ok=False)
            raise RequestFailed(f"{op} {method} {path}: timeout") from exc
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            self.ledger.book(op, "reset", ok=False)
            raise RequestFailed(f"{op} {method} {path}: {exc!r}") from exc
        ended = time.perf_counter()
        elapsed = ended - started
        self.log.append((method, path.split("?")[0], started, ended))
        ok = 200 <= response.status < 300
        self.ledger.book(op, str(response.status), ok=ok)
        if not ok:
            raise RequestFailed(
                f"{op} {method} {path}: HTTP {response.status} "
                f"{data[:300].decode('utf-8', 'replace')}"
            )
        if raw:
            return data, elapsed
        return json.loads(data.decode("utf-8")), elapsed
