"""Workload definitions: seeded inputs and the closed-loop step plans.

All three workloads draw rows from one NCVoter-style pool (20 columns of
:func:`repro.datasets.ncvoter.ncvoter_relation`, generator seed 0). The
benchmark seed shuffles the insert stream and picks the deleted rows;
the initial relations are the same under every seed.

A *lane* is one keep-alive connection driving a fixed set of tenants in
a closed loop. A step commits one batch (``POST /batches`` then ``POST
/flush``) and reads ``GET /uccs``. A tenant is owned by one lane, so it
never has two batches in flight and no batches coalesce: the same seed
applies the same batches in the same order on every run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

N_COLUMNS = 20
POOL_ROWS = 64_000
COLUMNS = [f"c{i:02d}" for i in range(N_COLUMNS)]

INSERT = "insert"
DELETE = "delete"
# Untimed steps per tenant before the recovery rounds, so recovery
# replays a changelog suffix, not just the seq-0 snapshot.
WARMUP_STEPS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``plan(step)`` lists the batches of a tenant's step as ``(kind,
    n_rows)``; a step commits each in turn and reads the profile after
    each commit. ``prefix_steps`` is how many timed steps per tenant the
    exact work counts cover: fixed, so counts repeat across runs of one
    seed however far the timed loop gets. ``setup_rounds`` creations and
    ``recover_rounds`` recoveries give the medians of ``setup_s`` and
    ``recover_s``; cheap ones get more rounds, to steady their median.
    """

    name: str
    tenants: int
    lanes: int
    initial_rows: int
    plan: Callable[[int], list[tuple[str, int]]]
    filtered_queries: bool
    prefix_steps: int
    setup_rounds: int
    recover_rounds: int


def _bulk_plan(step: int) -> list[tuple[str, int]]:
    return [(INSERT, 200)]


def _churn_plan(step: int) -> list[tuple[str, int]]:
    return [(INSERT, 200), (DELETE, 200)]


def _trickle_plan(step: int) -> list[tuple[str, int]]:
    return [(DELETE, 20)] if step % 4 == 3 else [(INSERT, 20)]


WORKLOADS = {
    # The insert path (Alg. 2 probes, retrieval, duplicate grouping,
    # hitting sets, PLI upkeep) does most of the work; the relation grows.
    "bulk-insert": Workload(
        "bulk-insert", tenants=1, lanes=1, initial_rows=20_000,
        plan=_bulk_plan, filtered_queries=False,
        prefix_steps=16, setup_rounds=3, recover_rounds=9,
    ),
    # The delete path (Alg. 6 checks, descent, PLI intersections) at a
    # flat size; the live share halves every 20 steps, so compaction,
    # snapshots and a sentinel pass all fall inside the counted prefix.
    "delete-churn": Workload(
        "delete-churn", tenants=1, lanes=1, initial_rows=4_000,
        plan=_churn_plan, filtered_queries=False,
        prefix_steps=32, setup_rounds=5, recover_rounds=5,
    ),
    # Per-batch fixed costs across a fleet: HTTP, admission, WAL fsync,
    # status, snapshots, the query cache. SWAN itself does little.
    "fleet-trickle": Workload(
        "fleet-trickle", tenants=8, lanes=2, initial_rows=2_000,
        plan=_trickle_plan, filtered_queries=True,
        prefix_steps=16, setup_rounds=9, recover_rounds=15,
    ),
}

# Filters a fleet-trickle read draws from (query strings of GET /uccs).
QUERY_FILTERS = [
    "",
    "kind=mucs",
    "kind=mnucs",
    "max_arity=2",
    "kind=mucs&max_arity=3",
    f"contains={COLUMNS[2]}",
    f"kind=mucs&contains={COLUMNS[5]},{COLUMNS[6]}",
    f"kind=mnucs&max_arity=4&contains={COLUMNS[0]}",
]


def load_pool(cache_dir: str) -> list[list[str]]:
    """The shared row pool, generated once and cached under ``cache_dir``."""
    path = os.path.join(cache_dir, f"pool-{POOL_ROWS}x{N_COLUMNS}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        pass
    from repro.datasets.ncvoter import ncvoter_relation

    relation = ncvoter_relation(POOL_ROWS, N_COLUMNS, seed=0)
    rows = [list(row) for row in relation.iter_rows()]
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)
    os.replace(tmp, path)
    return rows


class TenantFeed:
    """One tenant's seeded inputs and the client-side model of its state.

    The model (live tuple IDs and their rows) is what every served
    answer is checked against: IDs are dense and assigned in commit
    order, and compaction keeps them, so the client can follow them.
    """

    def __init__(self, tenant_id: str, rows: list[list[str]], initial: int, seed: int) -> None:
        self.tenant_id = tenant_id
        self.initial = rows[:initial]
        self._stream = rows[initial:]
        self._cursor = 0
        self.live: dict[int, list[str]] = dict(enumerate(self.initial))
        self._live_ids = list(range(initial))
        self.next_id = initial
        self.seq = 0
        self.rng = random.Random(f"{seed}|{tenant_id}|deletes")
        self.query_rng = random.Random(f"{seed}|{tenant_id}|queries")
        self.digests: list[str] = []

    def next_batch(self, kind: str, n_rows: int) -> dict[str, Any]:
        """The next batch body; the model is updated by :meth:`commit`."""
        if kind == INSERT:
            rows = self._stream[self._cursor : self._cursor + n_rows]
            if len(rows) < n_rows:
                raise StreamExhausted(self.tenant_id)
            return {"kind": INSERT, "rows": rows}
        picks = self.rng.sample(range(len(self._live_ids)), n_rows)
        return {"kind": DELETE, "tuple_ids": [self._live_ids[i] for i in picks]}

    def commit(self, batch: dict[str, Any]) -> None:
        """Apply an acknowledged batch to the model."""
        self.seq += 1
        if batch["kind"] == INSERT:
            rows = batch["rows"]
            for row in rows:
                self.live[self.next_id] = row
                self._live_ids.append(self.next_id)
                self.next_id += 1
            self._cursor += len(rows)
            return
        doomed = batch["tuple_ids"]
        for tuple_id in doomed:
            del self.live[tuple_id]
        gone = set(doomed)
        self._live_ids = [i for i in self._live_ids if i not in gone]

    def next_filter(self, filtered: bool) -> str:
        return self.query_rng.choice(QUERY_FILTERS) if filtered else ""


class StreamExhausted(Exception):
    """A tenant ran out of seeded rows before the timed loop ended."""


def feeds_for(workload: Workload, pool: list[list[str]], seed: int) -> list[TenantFeed]:
    """Per-tenant feeds.

    Each tenant owns a fixed slice of the pool and starts from the same
    initial rows under every seed; the seed shuffles the order in which
    the rest of its slice streams in. A seed that changed the initial
    relation would change its profile, and with it the cost of every
    batch several-fold, drowning any change to the program.
    """
    order = list(range(len(pool)))
    random.Random(f"{workload.name}|pool").shuffle(order)
    share = len(pool) // workload.tenants
    feeds = []
    for index in range(workload.tenants):
        rows = [pool[i] for i in order[index * share : (index + 1) * share]]
        stream = rows[workload.initial_rows :]
        random.Random(f"{seed}|{workload.name}|{index}").shuffle(stream)
        feeds.append(
            TenantFeed(
                f"{workload.name}-{index}",
                rows[: workload.initial_rows] + stream,
                workload.initial_rows,
                seed,
            )
        )
    return feeds
