"""Per-layer metrics from a traced round's spans.

Spans come from :mod:`traced_serve`; only requests decoded inside the
round's timed window count (client and server share
``time.perf_counter``'s ``CLOCK_MONOTONIC``).  A span's *self* time is
its duration minus its direct children's; self times of one request's
spans do not overlap, because the benchmark keeps one request in flight,
so they add up against the client's latency in the reconciliation.
Garbage-collection pauses overlap whatever they interrupted and are
reported beside the sum, not in it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

#: Reconciliation buckets: span-name prefix -> layer shown.
_BUCKETS = (("protocol.", "protocol"), ("server.", "server"),
            ("registry.", "registry"), ("dmi.", "dmi"),
            ("trim.", "trim+cache"), ("query.", "query"),
            ("views.", "views"), ("store.", "store"), ("wal.", "wal"),
            ("fsync", "fsync"), ("persistence.", "persistence"))

#: Store entry points that change triples (the rest read or restore).
_APPLY = {"store.add", "store.remove", "store.discard", "store.add_all",
          "store.remove_matching", "store.flush"}

#: The per-layer metric names and units, in BENCHMARK.json order.
UNITS = {
    "protocol.decode_us": "us", "protocol.encode_us": "us",
    "protocol.response_bytes": "B",
    "server.read_overhead_us": "us", "server.executor_wait_us": "us",
    "server.write_overhead_us": "us",
    "registry.queue_wait_us": "us", "registry.writes_per_commit": "count",
    "registry.open_ms": "ms", "registry.evict_ms": "ms",
    "registry.evict_retries": "count",
    "dmi.write_self_us": "us", "dmi.read_self_us": "us",
    "dmi.trim_calls_per_op": "count",
    "cache.hit_ratio": "ratio", "cache.invalidations_per_write": "count",
    "cache.evictions": "count",
    "query.exec_us": "us", "query.store_rows_per_result": "count",
    "views.closure_us": "us", "views.triples_per_call": "count",
    "store.apply_us_per_triple": "us", "store.match_us": "us",
    "store.restore_us_per_triple": "us",
    "wal.commit_us": "us", "wal.fsync_us": "us",
    "wal.fsyncs_per_write": "count", "wal.bytes_per_write": "B",
    "wal.delta_compacts_per_1k_writes": "count",
    "wal.delta_compact_ms": "ms",
    "wal.full_compacts_per_1k_writes": "count",
    "wal.compact_stall_ms": "ms/1k-writes",
    "persistence.snapshot_load_ms": "ms",
    "persistence.load_us_per_triple": "us",
    "persistence.snapshot_save_ms": "ms",
    "persistence.snapshot_bytes_per_triple": "B",
    "gc.pause_ms_per_1k_ops": "ms", "gc.gen2_collections": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def _bucket(name: str) -> str:
    for prefix, layer in _BUCKETS:
        if name.startswith(prefix):
            return layer
    return "other"


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: Dict[str, Any], traced: Dict[str, Any],
                  plain_ops_per_s: float
                  ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``(per-layer metrics, record detail)`` for one traced round."""
    t0, t1 = traced["window"]
    # The client's trim.stats calls collect cache counters; they are not
    # workload requests and have no client latency sample.
    requests = {int(k): v for k, v in doc["requests"].items()
                if t0 <= v[1] <= t1 and v[0] != "trim.stats"}
    spans = [s for s in doc["spans"] if s[5] in requests
             or (s[4] == -1 and s[1].startswith("gc.") and t0 <= s[2] <= t1)]
    by_id = {s[0]: s for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s[4] in by_id and s[2] != s[3]:
            children[s[4]] += s[3] - s[2]
    self_time = {s[0]: s[3] - s[2] - children[s[0]] for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s[1]].append(s)
    dur = lambda name: [s[3] - s[2] for s in named[name]]  # noqa: E731
    total = lambda name: sum(s[6] for s in named[name])  # noqa: E731

    # Server-side request classes: a read that opened its tenant is an
    # open, as on the client.
    opened = {s[5] for s in named["registry.open"]}
    per_request = defaultdict(list)
    for s in spans:
        if s[5] in requests:
            per_request[s[5]].append(s)
    klass = {}
    for req, (op, _) in requests.items():
        names = {s[1] for s in per_request[req]}
        klass[req] = ("open" if req in opened else
                      "write" if "server.write" in names else
                      "read" if "server.read" in names else
                      "evict" if op == "admin.evict" else "other")
    count_of = defaultdict(int)
    for c in klass.values():
        count_of[c] += 1

    client = defaultdict(list)
    for cls, seconds in traced["samples"]:
        client[cls].append(seconds * 1e6)
    writes = count_of["write"]
    ops = traced["sent"]

    read_fn = [s[3] - s[2] for s in named["server.read"]
               if klass[s[5]] == "read"]
    read_wait = [s[2] - requests[s[5]][1] for s in named["server.read"]
                 if klass[s[5]] == "read"]
    write_work = defaultdict(float)
    for name in ("server.write", "wal.commit"):
        for s in named[name]:
            if klass[s[5]] == "write" and (name == "server.write"
                                           or s[4] == -1):
                write_work[s[5]] += s[3] - s[2]
    top_commits = [s for s in named["wal.commit"] if s[4] == -1]

    def dmi_self(cls: Tuple[str, ...]) -> float:
        reqs = {s[5] for s in spans if s[1].startswith("dmi.")
                and klass[s[5]] in cls}
        spent = sum(self_time[s[0]] for s in spans
                    if s[1].startswith("dmi.") and klass[s[5]] in cls)
        return _ratio(spent, len(reqs)) * 1e6

    dmi_ids = {s[0] for s in spans if s[1].startswith("dmi.")}
    dmi_reqs = {s[5] for s in spans if s[0] in dmi_ids}
    trim_calls = sum(1 for s in spans if s[4] in dmi_ids
                     and (s[1].startswith(("trim.", "store."))))
    query_ids = {s[0] for s in named["query.exec"]}
    query_rows = sum(s[6] for s in named["store.rows"] if s[4] in query_ids)
    apply_spans = [s for s in spans if s[1] in _APPLY]
    # Compactions the write path ran inline (a full one is a snapshot
    # save straight under the commit), and every snapshot save.
    commit_ids = {c[0] for c in top_commits}
    stalls = sum(s[3] - s[2] for s in spans if s[4] in commit_ids and s[1]
                 in ("wal.delta_compact", "wal.compact", "persistence.save"))
    saves = named["persistence.save"]

    def under(span: list, name: str) -> bool:
        while span[4] in by_id:
            span = by_id[span[4]]
            if span[1] == name:
                return True
        return False

    # Full rewrites the commit path's delta_ratio trigger ran, as opposed
    # to the compacting close of an eviction.
    write_path_saves = [s for s in saves if under(s, "wal.commit")]
    gc_spans = [s for s in spans if s[1].startswith("gc.")]
    cache = traced["cache"]
    lookups = sum(cache.get(k, 0) for k in ("hits", "misses",
                                             "invalidations"))

    metrics = {
        "protocol.decode_us": _mean(dur("protocol.decode")) * 1e6,
        "protocol.encode_us": _mean(dur("protocol.encode")) * 1e6,
        "protocol.response_bytes": _ratio(total("protocol.encode"),
                                          len(named["protocol.encode"])),
        "server.read_overhead_us":
            (_mean(client["read"]) - _mean(read_fn) * 1e6)
            if client["read"] else 0.0,
        "server.executor_wait_us": _mean(read_wait) * 1e6,
        "server.write_overhead_us":
            (_mean(client["write"]) - _mean(list(write_work.values())) * 1e6)
            if client["write"] else 0.0,
        "registry.queue_wait_us": _mean(dur("registry.queue")) * 1e6,
        "registry.writes_per_commit": _ratio(len(named["server.write"]),
                                             len(top_commits)),
        "registry.open_ms": _mean(dur("registry.open")) * 1e3,
        "registry.evict_ms": _mean([s[3] - s[2] for s in
                                    named["registry.evict"] if s[6]]) * 1e3,
        "registry.evict_retries": traced["evict_retries"],
        "dmi.write_self_us": dmi_self(("write",)),
        "dmi.read_self_us": dmi_self(("read", "open")),
        "dmi.trim_calls_per_op": _ratio(trim_calls, len(dmi_reqs)),
        "cache.hit_ratio": _ratio(cache.get("hits", 0), lookups),
        "cache.invalidations_per_write": _ratio(
            cache.get("invalidations", 0), writes),
        "cache.evictions": cache.get("evictions", 0),
        "query.exec_us": _mean(dur("query.exec")) * 1e6,
        "query.store_rows_per_result": _ratio(query_rows,
                                              total("query.exec")),
        "views.closure_us": _mean(dur("views.closure")) * 1e6,
        "views.triples_per_call": _ratio(total("views.closure"),
                                         len(named["views.closure"])),
        "store.apply_us_per_triple": _ratio(
            sum(self_time[s[0]] for s in apply_spans),
            sum(s[6] for s in apply_spans)) * 1e6,
        "store.match_us": _mean([self_time[s[0]] for s in
                                 named["store.select"] + named["store.count"]])
        * 1e6,
        "store.restore_us_per_triple": _ratio(
            sum(dur("store.restore")), total("store.restore")) * 1e6,
        "wal.commit_us": _mean([s[3] - s[2] for s in top_commits]) * 1e6,
        "wal.fsync_us": _mean(dur("fsync")) * 1e6,
        "wal.fsyncs_per_write": _ratio(
            sum(1 for s in named["fsync"] if klass[s[5]] == "write"), writes),
        "wal.bytes_per_write": _ratio(total("wal.log"), writes),
        "wal.delta_compacts_per_1k_writes":
            _ratio(len(named["wal.delta_compact"]), writes) * 1000,
        "wal.delta_compact_ms": _mean(dur("wal.delta_compact")) * 1e3,
        "wal.full_compacts_per_1k_writes":
            _ratio(len(write_path_saves), writes) * 1000,
        "wal.compact_stall_ms": _ratio(stalls, writes) * 1e6,
        "persistence.snapshot_load_ms": _mean(dur("persistence.load")) * 1e3,
        "persistence.load_us_per_triple": _ratio(
            sum(dur("persistence.load")), total("persistence.load")) * 1e6,
        "persistence.snapshot_save_ms": _mean([s[3] - s[2]
                                               for s in saves]) * 1e3,
        "persistence.snapshot_bytes_per_triple": _ratio(
            sum(s[6][0] for s in saves), sum(s[6][1] for s in saves)),
        "gc.pause_ms_per_1k_ops": _ratio(sum(s[3] - s[2] for s in gc_spans),
                                         ops) * 1e6,
        "gc.gen2_collections": len(named["gc.gen2"]),
        "trace.overhead_ratio": traced["ops_per_s"] / plain_ops_per_s,
    }

    # Reconciliation: per class, mean client latency = the layers' mean
    # self time per request + an unattributed remainder.
    reconciliation: Dict[str, Any] = {}
    unattributed = attributed_total = 0.0
    for cls in ("open", "read", "write", "evict"):
        reqs = [r for r, c in klass.items() if c == cls]
        if not reqs or not client[cls]:
            continue
        layers = defaultdict(float)
        gc_us = 0.0
        for req in reqs:
            for s in per_request[req]:
                if s[1].startswith("gc."):
                    gc_us += s[3] - s[2]
                else:
                    layers[_bucket(s[1])] += self_time[s[0]]
        layers = {k: v / len(reqs) * 1e6 for k, v in sorted(layers.items())}
        latency = _mean(client[cls])
        remainder = latency - sum(layers.values())
        reconciliation[cls] = {
            "client_us": latency, "requests": len(reqs),
            "client_samples": len(client[cls]), "layers_us": layers,
            "unattributed_us": remainder,
            "gc_overlapping_us": gc_us / len(reqs) * 1e6}
        unattributed += remainder * len(client[cls])
        attributed_total += latency * len(client[cls])
    metrics["trace.unattributed_share"] = _ratio(unattributed,
                                                 attributed_total)
    detail = {"reconciliation": reconciliation,
              "requests_by_class": dict(count_of),
              "snapshot_saves": {"write_path": len(write_path_saves),
                                 "eviction": sum(1 for s in saves if under(
                                     s, "registry.evict"))},
              "tracing_overhead": metrics["trace.overhead_ratio"]}
    return {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items()}, \
        detail
