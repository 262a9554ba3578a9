"""Traced launcher for ``repro-server``: same process, spans recorded.

Run exactly like ``python -m repro.server.cli``::

    SERVEBENCH_TRACE_OUT=spans.json python servebench/tracer.py <root> --port 0

Before the server boots, the public functions listed in :data:`TARGETS`
are wrapped where their callers resolve them: methods on their class,
module functions in every loaded module that bound them with ``from x
import f``. Each call records one span ``(name, start, end, self, req,
parent, info)``: ``self`` is the duration minus the wrapped calls made
inside it on the same thread, ``req`` the token of the batch being
applied on that thread (spans of one batch share it), and ``info`` the
work counts the call returned. Clocks are ``time.perf_counter``, which
on Linux reads the system-wide monotonic clock, so spans line up with
the load generator's own timestamps.

Spans stay in memory. ``SIGUSR1`` writes them, atomically, to the file
named by ``SERVEBENCH_TRACE_OUT``; the load generator sends it once its
measured part is over.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable

_SPANS: list[tuple[Any, ...]] = []
_TLS = threading.local()

# (span name, module, attribute path). Layers are the name's prefix.
TARGETS = [
    ("server.handle", "repro.server.app", "ReproServerApp.handle"),
    ("tenants.ingest", "repro.tenants.manager", "TenantManager.ingest"),
    ("tenants.query", "repro.tenants.manager", "TenantManager.query_profile"),
    ("service.apply", "repro.service.server", "ProfilingService.apply_batch"),
    ("service.wal_append", "repro.service.changelog", "Changelog.append_inserts"),
    ("service.wal_append", "repro.service.changelog", "Changelog.append_deletes"),
    ("service.snapshot", "repro.service.snapshots", "SnapshotManager.save"),
    ("service.status", "repro.service.server", "ProfilingService.write_status"),
    ("service.sentinel", "repro.service.sentinel", "InvariantSentinel.check"),
    ("service.recover", "repro.service.recovery", "recover"),
    ("core.analyze_inserts", "repro.core.swan", "SwanProfiler.analyze_inserts"),
    ("core.commit_inserts", "repro.core.swan", "SwanProfiler.commit_inserts"),
    ("core.analyze_deletes", "repro.core.swan", "SwanProfiler.analyze_deletes"),
    ("core.commit_deletes", "repro.core.swan", "SwanProfiler.commit_deletes"),
    ("core.groups_for", "repro.core.duplicates", "DuplicateManager.groups_for"),
    ("storage.retrieve", "repro.storage.sparse_index", "SparseIndex.retrieve_tuples"),
    ("storage.index_lookup", "repro.storage.value_index", "ValueIndex.lookup_batch"),
    ("storage.pli_intersect", "repro.storage.fastpli", "ArrayPli.intersect"),
    ("storage.compact", "repro.core.swan", "SwanProfiler.compact_storage"),
    ("lattice.hitting_sets", "repro.lattice.transversal", "minimal_hitting_sets"),
    ("lattice.hitting_sets", "repro.lattice.transversal", "minimal_unique_supersets"),
    ("lattice.hitting_sets", "repro.lattice.transversal", "mucs_from_mnucs"),
    ("baselines.ducc", "repro.baselines.ducc", "discover_ducc"),
]


def _info(name: str, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> Any:
    """The work counts one call carries, as a small JSON-able value."""
    if name == "server.handle":
        request = args[1]
        return [request.method, request.path, getattr(result, "status", 0)]
    if name == "tenants.ingest":
        token = kwargs.get("token")
        return [args[1], token if isinstance(token, str) else None]
    if name in ("core.analyze_inserts", "core.analyze_deletes"):
        # analyze_deletes returns (captured rows, outcome).
        outcome = result[1] if isinstance(result, tuple) else result
        stats = getattr(outcome, "stats", None)
        return None if stats is None else dict(vars(stats), retrieval=None)
    if name == "service.recover":
        return getattr(result, "replayed_records", 0)
    return None


def _wrap(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        if name == "service.apply":
            token = getattr(args[1], "token", None)
            _TLS.req = token if isinstance(token, str) else None
        parent = stack[-1][0] if stack else None
        stack.append([name, 0.0])
        started = time.perf_counter()
        result: Any = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            ended = time.perf_counter()
            _, child = stack.pop()
            duration = ended - started
            if stack:
                stack[-1][1] += duration
            req = getattr(_TLS, "req", None)
            if name == "service.apply":
                _TLS.req = None
            _SPANS.append(
                (
                    name,
                    started,
                    ended,
                    duration - child,
                    req,
                    parent,
                    _info(name, args, kwargs, result),
                )
            )

    return traced


def install() -> None:
    """Wrap every target where its callers look it up."""
    import importlib

    importlib.import_module("repro.server.cli")
    for name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, leaf, _wrap(name, owner.__dict__[leaf]))
            continue
        original = getattr(module, leaf)
        traced = _wrap(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, traced)


def dump(path: str) -> None:
    """Write every span recorded so far to ``path`` (tmp + rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(list(_SPANS), handle)
    os.replace(tmp, path)


def main() -> int:
    out = os.environ["SERVEBENCH_TRACE_OUT"]
    install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump(out))
    from repro.server.cli import main as server_main

    return server_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
