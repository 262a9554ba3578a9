#!/usr/bin/env python3
"""Closed-loop, out-of-process benchmark of the served ``repro-server`` stack.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload bulk-insert --seed 1 --seconds 15 --trace 0

One run starts ``repro-server`` as a child process on a fresh fleet root,
then drives it from this process over keep-alive connections:

1. set-up: ``POST /tenants`` with the initial rows, several times from the
   same (empty) fleet state; ``setup_s`` is the median;
2. warm-up steps (untimed), then ``POST /recover`` rounds, each checked
   against the profile served before it; ``recover_s`` is the median;
3. the timed closed loop for ``--seconds``;
4. the correctness gate: the final served profile of every tenant equals
   a holistic DUCC rediscovery over ``GET /rows.csv`` (and the rows equal
   the client's model); per-commit digests repeat across runs of the
   seed; after ``SIGKILL`` and a restart every tenant serves its last
   acknowledged profile.

``--trace 1`` runs the workload twice: an untraced reference pass (one
creation, one recovery, no end-of-run checks), then the full traced
run. It reports the per-layer metrics of the traced server and the
tracing overhead, the traced ``rows_per_s`` against the reference one. The last line of standard output is the result object; the
line before it is the full report (stamp, every metric, op ledger, work
counts, check results). The exit code is 0 only if the gate passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from client import Connection, Ledger, RequestFailed  # noqa: E402
from layers import layer_metrics  # noqa: E402
from server import ServerError, ServerProcess  # noqa: E402
from workloads import (  # noqa: E402
    COLUMNS,
    INSERT,
    WORKLOADS,
    StreamExhausted,
    WARMUP_STEPS,
    TenantFeed,
    Workload,
    feeds_for,
    load_pool,
)

STATE_DIR = ".servebench"
# A p90 is reported only with at least this many samples above it.
TAIL_SUPPORT = 10


class GateFailure(Exception):
    """A correctness check failed."""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list[float], q: float) -> float | None:
    """The q-quantile, or None when fewer than TAIL_SUPPORT lie above it."""
    if len(values) * (1.0 - q) < TAIL_SUPPORT:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _profile_key(document: dict[str, Any]) -> tuple[Any, ...]:
    return (
        document.get("seq"),
        document.get("live_rows"),
        [m["mask"] for m in document.get("mucs", [])],
        [m["mask"] for m in document.get("mnucs", [])],
    )


def _digest(document: dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(_profile_key(document)).encode()).hexdigest()[:16]


class Run:
    """One pass of a workload against one server child.

    A ``reference`` pass only yields the untraced ``rows_per_s`` that a
    traced pass is compared with: one creation, one recovery (so its
    loop starts from the same state) and no end-of-run checks.
    """

    def __init__(self, checkout: str, workdir: str, workload: Workload, seed: int,
                 seconds: float, traced: bool, pool: list[list[str]],
                 reference: bool = False) -> None:
        self.checkout = checkout
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.reference = reference
        self.feeds = feeds_for(workload, pool, seed)
        self.ledger = Ledger()
        self.root = os.path.join(workdir, "fleet")
        self.setup_s: list[float] = []
        self.recover_s: list[float] = []
        self.commits: list[tuple[str, str, float, float, int]] = []
        self.queries: list[tuple[float, float]] = []
        self.requests: list[tuple[str, str, float, float]] = []
        self.loop_wall = 0.0
        self.loop_rows = 0
        self.exhausted = False
        self.last_profile: dict[str, dict[str, Any]] = {}
        self.rss_mb = 0.0
        self.gauges: dict[str, dict[str, float]] = {}
        self.spans: list[list[Any]] = []

    # -- one closed-loop step ----------------------------------------------
    def _commit(self, conn: Connection, feed: TenantFeed, batch: dict[str, Any],
                token: str, timed: bool) -> None:
        base = f"/tenants/{feed.tenant_id}"
        body = dict(batch, token=token)
        started = time.perf_counter()
        conn.request(f"{batch['kind']}.batches", "POST", base + "/batches", body)
        conn.request(f"{batch['kind']}.flush", "POST", base + "/flush", {})
        ended = time.perf_counter()
        feed.commit(batch)
        n_rows = len(batch.get("rows", batch.get("tuple_ids", [])))
        if timed:
            self.commits.append((batch["kind"], feed.tenant_id, started, ended, n_rows))
        query = feed.next_filter(self.workload.filtered_queries)
        path = base + "/uccs" + (f"?{query}" if query else "")
        q_start = time.perf_counter()
        document, _ = conn.request("uccs", "GET", path)
        q_end = time.perf_counter()
        if timed:
            self.queries.append((q_start, q_end))
        if document.get("seq") != feed.seq or document.get("live_rows") != len(feed.live):
            raise GateFailure(
                f"{feed.tenant_id}: after commit {feed.seq} served seq "
                f"{document.get('seq')} with {document.get('live_rows')} rows, "
                f"expected {len(feed.live)}"
            )
        feed.digests.append(_digest(document))

    def _step(self, conn: Connection, feed: TenantFeed, phase: str, step: int, timed: bool) -> None:
        for kind, n_rows in self.workload.plan(step):
            batch = feed.next_batch(kind, n_rows)
            self._commit(conn, feed, batch, f"{feed.tenant_id}/{phase}/{step}/{kind}", timed)

    def _lane(self, port: int, feeds: list[TenantFeed], deadline: float,
              errors: list[BaseException]) -> None:
        conn = Connection(port, self.ledger)
        step = 0
        try:
            while True:
                for feed in feeds:
                    if time.perf_counter() >= deadline:
                        return
                    self._step(conn, feed, "t", step, timed=True)
                step += 1
        except StreamExhausted:
            self.exhausted = True
        except (RequestFailed, GateFailure) as exc:
            errors.append(exc)
        finally:
            self.requests.extend(conn.log)
            conn.close()

    # -- phases -------------------------------------------------------------
    def _setup(self, conn: Connection) -> None:
        config = {"columns": COLUMNS}
        first = self.feeds[0]
        rounds = 1 if self.reference else self.workload.setup_rounds
        for round_index in range(rounds):
            last = round_index == rounds - 1
            tenant_id = first.tenant_id if last else f"{first.tenant_id}-r{round_index}"
            body = {"tenant_id": tenant_id, "config": config, "rows": first.initial}
            _, seconds = conn.request("create", "POST", "/tenants", body)
            self.setup_s.append(seconds)
            if not last:
                conn.request("drop", "DELETE", f"/tenants/{tenant_id}")
        for feed in self.feeds[1:]:
            body = {"tenant_id": feed.tenant_id, "config": config, "rows": feed.initial}
            conn.request("create", "POST", "/tenants", body)

    def _profile(self, conn: Connection, feed: TenantFeed) -> dict[str, Any]:
        document, _ = conn.request("uccs", "GET", f"/tenants/{feed.tenant_id}/uccs")
        return document

    def _recover_rounds(self, conn: Connection) -> None:
        feed = self.feeds[0]
        before = _profile_key(self._profile(conn, feed))
        for _ in range(1 if self.reference else self.workload.recover_rounds):
            started = time.perf_counter()
            conn.request("recover", "POST", f"/tenants/{feed.tenant_id}/recover", {})
            after = _profile_key(self._profile(conn, feed))
            self.recover_s.append(time.perf_counter() - started)
            if after != before:
                raise GateFailure(f"{feed.tenant_id}: profile changed across /recover")

    def _timed_loop(self, port: int) -> None:
        lanes = [self.feeds[i :: self.workload.lanes] for i in range(self.workload.lanes)]
        errors: list[BaseException] = []
        started = time.perf_counter()
        deadline = started + self.seconds
        threads = [
            threading.Thread(target=self._lane, args=(port, feeds, deadline, errors))
            for feeds in lanes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ends = [commit[3] for commit in self.commits]
        self.loop_wall = (max(ends) if ends else time.perf_counter()) - started
        self.loop_rows = sum(commit[4] for commit in self.commits)
        if errors:
            raise errors[0]

    def _oracle(self, conn: Connection) -> None:
        """Served profile == holistic DUCC over the served rows."""
        from repro.profiling.discovery import discover
        from repro.storage.relation import Relation
        from repro.storage.schema import Schema

        for feed in self.feeds:
            served = self._profile(conn, feed)
            self.last_profile[feed.tenant_id] = served
            data, _ = conn.request("rows", "GET", f"/tenants/{feed.tenant_id}/rows.csv", raw=True)
            reader = csv.reader(io.StringIO(data.decode("utf-8")))
            header = next(reader)
            if header != ["tuple_id", *COLUMNS]:
                raise GateFailure(f"{feed.tenant_id}: rows.csv header {header[:3]}...")
            rows = {int(line[0]): line[1:] for line in reader}
            if rows != feed.live:
                raise GateFailure(f"{feed.tenant_id}: served rows differ from the model")
            relation = Relation.from_rows(Schema(COLUMNS), [tuple(r) for r in rows.values()])
            mucs, mnucs = discover(relation, "ducc")
            key = _profile_key(served)
            if sorted(key[2]) != sorted(mucs) or sorted(key[3]) != sorted(mnucs):
                raise GateFailure(f"{feed.tenant_id}: served profile != DUCC rediscovery")

    def _gauges(self, conn: Connection) -> None:
        for feed in self.feeds:
            status, _ = conn.request("status", "GET", f"/tenants/{feed.tenant_id}/status")
            self.gauges[feed.tenant_id] = status["service"]["gauges"]

    def _kill_restart(self, server: ServerProcess) -> None:
        """SIGKILL, restart on the same root, every tenant unchanged."""
        server.kill()
        restarted = ServerProcess(self.checkout, self.root, os.path.join(self.workdir, "restart.log"))
        try:
            conn = Connection(restarted.port, Ledger())
            for feed in self.feeds:
                served = _profile_key(self._profile(conn, feed))
                if served != _profile_key(self.last_profile[feed.tenant_id]):
                    raise GateFailure(f"{feed.tenant_id}: profile lost across SIGKILL + restart")
            conn.close()
        finally:
            # The fleet is thrown away: no need for a graceful drain.
            restarted.kill()

    def execute(self) -> None:
        trace_out = os.path.join(self.workdir, "spans.json") if self.traced else None
        server = ServerProcess(self.checkout, self.root, os.path.join(self.workdir, "server.log"), trace_out)
        try:
            conn = Connection(server.port, self.ledger)
            self._setup(conn)
            for step in range(WARMUP_STEPS):
                for feed in self.feeds:
                    self._step(conn, feed, "w", step, timed=False)
            self._recover_rounds(conn)
            self._timed_loop(server.port)
            # The set-up connection sat idle through the loop; the server
            # may have timed it out, so the checks use a fresh one.
            conn.close()
            if self.reference:
                self.rss_mb = server.peak_rss_mb()
                return
            conn = Connection(server.port, self.ledger)
            self._gauges(conn)
            self._oracle(conn)
            self.rss_mb = server.peak_rss_mb()
            conn.close()
            if trace_out is not None:
                with open(server.dump_trace(), encoding="utf-8") as handle:
                    self.spans = json.load(handle)
            self._kill_restart(server)
        finally:
            server.kill()

    # -- results ------------------------------------------------------------
    def end_to_end(self) -> dict[str, float | None]:
        inserts = [(e - s) * 1e3 for k, _, s, e, _ in self.commits if k == INSERT]
        deletes = [(e - s) * 1e3 for k, _, s, e, _ in self.commits if k != INSERT]
        queries = [(e - s) * 1e3 for s, e in self.queries]
        metrics: dict[str, float | None] = {
            "setup_s": _median(self.setup_s),
            "rows_per_s": self.loop_rows / self.loop_wall if self.loop_wall else 0.0,
            "insert_ms.p50": _median(inserts),
            "insert_ms.p90": _tail(inserts, 0.9),
            "query_ms.p50": _median(queries),
            "query_ms.p90": _tail(queries, 0.9),
            "recover_s": _median(self.recover_s),
            "rss_mb": self.rss_mb,
        }
        if deletes:
            metrics["delete_ms.p50"] = _median(deletes)
            metrics["delete_ms.p90"] = _tail(deletes, 0.9)
        return metrics

    def samples(self) -> dict[str, int]:
        inserts = sum(1 for c in self.commits if c[0] == INSERT)
        return {
            "setup": len(self.setup_s),
            "recover": len(self.recover_s),
            "insert_commits": inserts,
            "delete_commits": len(self.commits) - inserts,
            "queries": len(self.queries),
        }


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


def _stamp(workdir: str) -> dict[str, Any]:
    import numpy

    from repro.tenants.config import TenantConfig

    fsync = TenantConfig.__dataclass_fields__["fsync"].default
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "flush_policy": "fsync on" if fsync else "fsync off",
        "state_fs": _filesystem(workdir),
    }


def _check_repeat(state: str, kind: str, workload: str, seed: int,
                  current: dict[str, Any], prefix_only: bool) -> list[str]:
    """Compare with the stored record of an earlier run of this seed.

    Digest lists are compared on their common prefix (a faster run gets
    further); work counts must be equal outright. The longer record is
    kept. Returns the mismatches.
    """
    path = os.path.join(state, f"{kind}-{workload}-seed{seed}.json")
    os.makedirs(state, exist_ok=True)
    try:
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        stored = None
    problems: list[str] = []
    merged = dict(current)
    if stored is not None:
        for key, value in stored.items():
            mine = current.get(key)
            if prefix_only:
                n = min(len(value), len(mine or []))
                if (mine or [])[:n] != value[:n]:
                    problems.append(f"{kind} {key} differs from an earlier run of seed {seed}")
                if len(value) > len(mine or []):
                    merged[key] = value
            elif mine != value:
                problems.append(f"{kind} {key}: {mine} != {value} in an earlier run of seed {seed}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(merged, handle)
    os.replace(tmp, path)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "repro", "server", "cli.py")):
        print("servebench: run from the root of a repro checkout (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(checkout, "src"))
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)

    state = os.path.join(checkout, STATE_DIR)
    workdir = os.path.join(state, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload]
    problems: list[str] = []
    report: dict[str, Any] = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds}
    try:
        report["stamp"] = _stamp(workdir)
        pool = load_pool(state)
        # With --trace 1: an untraced reference pass, then the traced one.
        passes = [False, True] if args.trace else [False]
        runs = []
        for traced in passes:
            run = Run(checkout, os.path.join(workdir, "traced" if traced else "plain"),
                      workload, args.seed, args.seconds, traced, pool,
                      reference=bool(args.trace) and not traced)
            os.makedirs(run.workdir)
            runs.append(run)
            try:
                run.execute()
            except (GateFailure, RequestFailed, ServerError) as exc:
                problems.append(f"{'traced' if traced else 'untraced'}: {exc}")
                break
            digests = {f.tenant_id: f.digests for f in run.feeds}
            problems += _check_repeat(state, "digests", workload.name, args.seed, digests, True)
        plain = runs[0]
        e2e = plain.end_to_end()
        report.update(
            end_to_end=e2e, samples=plain.samples(), ledger=plain.ledger.to_dict(),
            stream_exhausted=plain.exhausted, setup_runs_s=plain.setup_s,
            recover_runs_s=plain.recover_s,
        )
        metrics_out = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
        ledger = plain.ledger
        if args.trace and len(runs) == 2 and not problems:
            traced_run = runs[1]
            layers, counts, notes = layer_metrics(traced_run, e2e["rows_per_s"] or 0.0)
            problems += notes
            if counts is not None:
                problems += _check_repeat(state, "counts", workload.name, args.seed, counts, False)
            report.update(per_layer=layers, work_counts=counts or "prefix not reached")
            metrics_out = {
                m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                for m in contract["per_layer"]
            }
            ledger = traced_run.ledger
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["checks"] = problems or "all passed"
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics_out,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
