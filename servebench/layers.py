"""Per-layer metrics from the spans of a traced run.

Timings are the median milliseconds per call over the whole run, plus
the total self time per run (``<span>.self_total_ms``). Counts cover a
fixed amount of work so they repeat exactly across runs of one seed:
set-up, warm-up and recovery, plus each tenant's first
``Workload.prefix_steps`` timed steps. Spans of later timed steps count
towards timings only.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Any

# Span name -> per-call timing metric.
TIMED = {
    "tenants.ingest": "tenants.ingest_ms",
    "tenants.query": "tenants.query_ms",
    "service.apply": "service.apply_ms",
    "service.wal_append": "service.wal_append_ms",
    "service.snapshot": "service.snapshot_ms",
    "service.status": "service.status_ms",
    "service.sentinel": "service.sentinel_ms",
    "service.recover": "service.recover_ms",
    "core.analyze_inserts": "core.analyze_inserts_ms",
    "core.commit_inserts": "core.commit_inserts_ms",
    "core.analyze_deletes": "core.analyze_deletes_ms",
    "core.commit_deletes": "core.commit_deletes_ms",
    "core.groups_for": "core.groups_for_ms",
    "storage.retrieve": "storage.retrieve_ms",
    "storage.index_lookup": "storage.index_lookup_ms",
    "storage.pli_intersect": "storage.pli_intersect_ms",
    "storage.compact": "storage.compact_ms",
    "lattice.hitting_sets": "lattice.hitting_sets_ms",
    "baselines.ducc": "baselines.ducc_ms",
}

# Count metrics that must repeat exactly across runs of one seed.
EXACT_COUNTS = [
    "core.tuples_retrieved",
    "core.lattice_checks",
    "service.wal_appends",
    "service.snapshots",
    "service.status_writes",
    "service.sentinel_runs",
    "storage.compactions",
    "service.replayed_records",
]

_INSERT_STATS = ["candidate_ids", "tuples_retrieved", "duplicate_groups", "broken_mucs"]
_DELETE_STATS = ["mnucs_checked", "lattice_checks", "turned_mnucs"]
_SHORT_CIRCUITS = ["unaffected_short_circuits", "restricted_short_circuits", "survivor_short_circuits"]

def _ms_median(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _counted(req: str | None, prefix_steps: int) -> bool:
    """Whether a span's work falls in the fixed-work part of the run."""
    if req is None:
        return True
    parts = req.split("/")
    return len(parts) != 4 or parts[1] != "t" or int(parts[2]) < prefix_steps


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(
    run: Any, untraced_rows_per_s: float
) -> tuple[dict[str, float], dict[str, int] | None, list[str]]:
    """``(metrics, exact counts, problems)`` for a finished traced run.

    The exact counts are ``None`` when some tenant did not reach
    ``prefix_steps`` timed steps.
    """
    prefix = run.workload.prefix_steps
    spans = [tuple(span) for span in run.spans]
    out: dict[str, float] = {}
    notes: list[str] = []

    by_name: dict[str, list[tuple[Any, ...]]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    for span_name, metric in TIMED.items():
        group = by_name.get(span_name, [])
        if span_name == "lattice.hitting_sets":
            group = [s for s in group if s[5] != span_name]
        out[metric] = _ms_median([s[2] - s[1] for s in group])
        out[f"{span_name}.self_total_ms"] = sum(s[3] for s in by_name.get(span_name, [])) * 1e3

    counted = [s for s in spans if _counted(s[4], prefix)]
    reached: dict[str, int] = defaultdict(int)
    for s in by_name.get("service.apply", []):
        parts = (s[4] or "").split("/")
        if len(parts) == 4 and parts[1] == "t":
            reached[parts[0]] = max(reached[parts[0]], int(parts[2]) + 1)
    short = [f.tenant_id for f in run.feeds if reached[f.tenant_id] < prefix]

    def count(name: str, parent: str | None = None) -> int:
        """Counted spans of ``name``; only those under ``parent`` if given."""
        return sum(1 for s in counted if s[0] == name and parent in (None, s[5]))

    out["service.batches_applied"] = count("service.apply")
    out["service.wal_appends"] = count("service.wal_append")
    out["service.snapshots"] = count("service.snapshot")
    # Status writes the batch path makes; set-up and shutdown write too.
    out["service.status_writes"] = count("service.status", parent="service.apply")
    out["service.sentinel_runs"] = count("service.sentinel")
    out["storage.compactions"] = count("storage.compact")
    out["storage.pli_intersections"] = count("storage.pli_intersect")
    out["lattice.hitting_set_calls"] = sum(
        1 for s in counted if s[0] == "lattice.hitting_sets" and s[5] != "lattice.hitting_sets"
    )
    out["service.replayed_records"] = sum(
        int(s[6] or 0) for s in counted if s[0] == "service.recover"
    )
    stats: dict[str, int] = defaultdict(int)
    for s in counted:
        if s[0] in ("core.analyze_inserts", "core.analyze_deletes") and s[6]:
            for key, value in s[6].items():
                if isinstance(value, int):
                    stats[key] += value
    for stat in _INSERT_STATS + _DELETE_STATS:
        out[f"core.{stat}"] = stats[stat]
    checked = stats["mnucs_checked"]
    out["core.short_circuit_ratio"] = (
        sum(stats[k] for k in _SHORT_CIRCUITS) / checked if checked else 0.0
    )

    # Service self time: apply minus its wrapped children (service + core).
    out["service.self_ms"] = _ms_median([s[3] for s in by_name.get("service.apply", [])])
    submitted = len(by_name.get("tenants.ingest", []))
    applied = sum(1 for s in by_name.get("service.apply", []) if s[4] is not None)
    out["tenants.applied_per_submitted"] = applied / submitted if submitted else 0.0
    if submitted and applied != submitted:
        notes.append(f"{applied} batches applied for {submitted} submitted")

    # Queue wait: ingest return -> apply start of the same token.
    ingested = {s[6][1]: s[2] for s in by_name.get("tenants.ingest", []) if s[6] and s[6][1]}
    out["tenants.queue_wait_ms"] = _ms_median(
        [s[1] - ingested[s[4]] for s in by_name.get("service.apply", []) if s[4] in ingested]
    )

    # Pair each timed-loop request with the handle span inside it.
    handles: dict[tuple[str, str], list[tuple[float, float, int]]] = defaultdict(list)
    for s in by_name.get("server.handle", []):
        method, path, status = s[6]
        handles[(method, path)].append((s[1], s[2], status))
    for group in handles.values():
        group.sort()
    out["server.errors"] = sum(1 for g in handles.values() for h in g if h[2] >= 400)

    def handle_in(method: str, path: str, start: float, end: float) -> tuple[float, float] | None:
        group = handles.get((method, path), [])
        index = bisect.bisect_left(group, (start,))
        if index < len(group) and group[index][1] <= end:
            return group[index][0], group[index][1]
        return None

    transport: list[float] = []
    by_route: dict[str, list[float]] = defaultdict(list)
    unmatched = 0
    for method, path, start, end in run.requests:
        span = handle_in(method, path, start, end)
        if span is None:
            unmatched += 1
            continue
        transport.append((end - start) - (span[1] - span[0]))
        by_route[path.rsplit("/", 1)[-1]].append(span[1] - span[0])
    if unmatched:
        notes.append(f"{unmatched} timed requests had no server span")
    out["server.transport_ms"] = _ms_median(transport)
    for route in ("batches", "flush", "uccs"):
        out[f"server.handle_ms.{route}"] = _ms_median(by_route[route])

    # Share of client commit time that no server span covers.
    commit_total = uncovered = 0.0
    for _, tenant, start, end, _ in run.commits:
        base = f"/tenants/{tenant}"
        pieces = [
            span
            for span in (
                handle_in("POST", base + "/batches", start, end),
                handle_in("POST", base + "/flush", start, end),
            )
            if span is not None
        ]
        commit_total += end - start
        uncovered += (end - start) - _covered(pieces)
    out["trace.unaccounted_share"] = uncovered / commit_total if commit_total else 0.0

    # Gauges the service keeps itself, summed over tenants.
    def gauge_sum(name: str) -> float:
        return sum(float(g.get(name, 0.0)) for g in run.gauges.values())

    hits, misses = gauge_sum("query_cache_hits"), gauge_sum("query_cache_misses")
    out["tenants.query_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    hits, misses = gauge_sum("pli_cache_hits"), gauge_sum("pli_cache_misses")
    out["storage.pli_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["storage.pli_cache_evictions"] = gauge_sum("pli_cache_evictions")

    traced_rows_per_s = run.loop_rows / run.loop_wall if run.loop_wall else 0.0
    out["trace.overhead_pct"] = (
        (untraced_rows_per_s / traced_rows_per_s - 1.0) * 100.0 if traced_rows_per_s else 0.0
    )

    # A run too slow to finish the prefix did less counted work: its
    # counts are reported but not compared.
    counts = None if short else {name: int(out[name]) for name in EXACT_COUNTS}
    return out, counts, notes
