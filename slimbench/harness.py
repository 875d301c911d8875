"""Drive ``python -m repro serve`` through one seeded plan and measure it.

One run lays the plan's pads down once (a compacted v3 snapshot per
tenant), then measures several *rounds*.  Each round copies the pads into
a fresh registry root, starts a fresh server process, warms it up,
replays the plan's timed operation list over one connection at a time,
reads every tenant back through the service, drains the server with
SIGTERM and reopens every tenant directory offline.  Both read-backs are
compared triple for triple with the model of acked writes.

Rounds repeat the same operation list on the same pads, so a run's
figures are medians over fresh processes rather than one process's luck.
Every time a round reports is in reference-host seconds
(:mod:`hostspeed`); the raw figures are kept in the run record.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import REF_SECONDS, SEGMENT_S, Segment, Segments, reference
from workload import (CONTENT, PAD_ID, ROOT_BUNDLE, ROUNDS, SCRAP_NAME,
                      WRITE_KINDS, Pad, Plan, apply_op, generate)

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")

#: The service configuration every round runs with.  ``idle_ttl`` is far
#: beyond a run, so the only evictions are the explicit ``admin.evict``
#: calls; the rest are the service's own defaults, stated for the record.
CONFIG = {"store": "TripleStore", "concurrent": True, "shards": 1,
          "sync": "inline", "fsync": True, "compact_every": 64,
          "delta_ratio": 0.5, "idle_ttl": 86400.0}

#: Where a run keeps its pads and registry roots (removed afterwards).
WORK = os.path.join(CHECKOUT, ".slimbench-work")

#: ``admin.evict`` retries (1 ms apart) before a session end gives up.
EVICT_RETRIES = 5000

_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The run could not be measured (as opposed to measured wrong)."""


# -- the server process -------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess on an ephemeral port.

    With *spans* set, the server runs under :mod:`traced_serve`, which
    writes its trace to that path when the server drains.
    """

    def __init__(self, root: str, log: str, spans: Optional[str] = None):
        if spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                    "--spans", spans]
        argv += ["serve", root, "--port", "0",
                 "--idle-ttl", str(CONFIG["idle_ttl"])]
        # A fixed hash seed gives every server process the same set and
        # dict layouts, one less difference between rounds.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, cwd=CHECKOUT)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.kill()
            raise BenchError(f"server did not start (see {log}): {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """utime + stime of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), MB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def drain(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for the drain; the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout)
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- laying pads down ---------------------------------------------------------

def _node(tagged: tuple):
    from repro.triples.triple import Literal, Resource
    return Resource(tagged[1]) if tagged[0] == "r" else Literal(tagged[2])


def canonical(subject: str, prop: str, node) -> tuple:
    """A stored triple in the model's tagged form."""
    from repro.replay.bundle import encode_node
    return (subject, prop, tuple(encode_node(node)))


def lay_down(pads: Dict[str, Pad], root: str) -> None:
    """Write each pad as a tenant directory holding one v3 snapshot."""
    from repro.triples.trim import TrimManager
    from repro.triples.triple import Resource, Triple
    for tenant, pad in pads.items():
        rows = [Triple(Resource(s), Resource(p), _node(v))
                for s, p, v in sorted(pad.triples())]
        trim = TrimManager(durable=os.path.join(root, tenant))
        try:
            trim.bulk_ingest(rows)
            trim.durability.compact()
        finally:
            trim.close()


def stored_triples(directory: str) -> set:
    """Every triple a tenant directory recovers to, read offline.

    Recovery only reads the directory; the interned store is the
    faster of the two store implementations to load.
    """
    from repro.triples.interned import InternedTripleStore
    from repro.triples.wal import recover
    store = recover(directory, store=InternedTripleStore()).store
    return {canonical(t.subject.uri, t.property.uri, t.value)
            for t in store}


def disk_bytes(root: str) -> int:
    """Bytes of every file under *root*."""
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


# -- the client side ----------------------------------------------------------

class Driver:
    """Replays operations against one server and checks every answer.

    Latencies are measured around the request only; checking the answer
    against the model happens after the clock stops.  ``samples`` holds
    ``(class, seconds)`` per request, class being ``open``, ``read`` or
    ``write``, plus one ``evict`` sample per session end (not an op);
    ``sample_seg`` holds each sample's segment in :attr:`seg`, which a
    recording :meth:`run` needs.
    """

    def __init__(self, port: int, pads: Dict[str, Pad]) -> None:
        from repro.service.client import ServiceClient
        self._connect = lambda tenant=None: ServiceClient(
            "127.0.0.1", port, tenant=tenant, timeout=60.0)
        self.pads = pads
        self.ids: Dict[str, str] = {}
        self.admin = self._connect()
        self.conn = None
        self.samples: List[Tuple[str, float]] = []
        self.sample_seg: List[int] = []
        self.seg: Optional[Segments] = None
        self.failed = 0
        self.mismatches: List[str] = []
        self.evict_retries = 0
        #: Fold each session's cache counters into ``cache`` (traced runs).
        self.cache_stats = False
        self.cache: Dict[str, float] = {}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.admin.close()

    def bind(self, ref: str) -> str:
        """The scrap id *ref* names; ``ValueError`` (which :meth:`run`
        counts as a failed op) for a handle whose ``new`` failed."""
        if not ref.startswith("@"):
            return ref
        if ref not in self.ids:
            raise ValueError(f"scrap handle {ref} is unbound: its "
                             f"dmi.create failed")
        return self.ids[ref]

    def _mismatch(self, op: list, detail: str) -> None:
        self.mismatches.append(f"{op!r}: {detail}")

    def stats(self, sign: int) -> None:
        """Fold the tenant's cache counters in with *sign* (+1 after,
        -1 before a measured stretch).  These calls are not part of the
        workload, so their time comes off the open segment."""
        started = time.perf_counter()
        block = self.conn.stats()["cache"]["select_cache"] or {}
        if self.seg is not None:
            self.seg.pause(time.perf_counter() - started)
        for key in ("hits", "misses", "invalidations", "evictions"):
            self.cache[key] = self.cache.get(key, 0) + sign * block.get(key, 0)

    def run(self, ops: List[list], record: bool) -> int:
        """Execute *ops*; returns the number of requests sent."""
        from repro.errors import ReproError
        sent = 0
        for op in ops:
            kind = op[0]
            if kind == "evict":
                self._end_session(op[1], record)
                if record and self.seg.due():
                    self.seg.cut()
                continue
            if kind == "open" or self.conn is None:
                if self.conn is not None:
                    self.conn.close()
                self.conn = self._connect(op[1])
            sent += 1
            started = time.perf_counter()
            try:
                answer = self._send(op)
            except (ReproError, OSError, ValueError) as exc:
                self.failed += 1
                self._mismatch(op, f"failed: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            if record:
                cls = ("open" if kind == "open" else
                       "write" if kind in WRITE_KINDS else "read")
                self._sample(cls, elapsed)
            self._check(op, answer)
            if record and self.seg.due():
                self.seg.cut()
        return sent

    def _sample(self, cls: str, seconds: float) -> None:
        self.samples.append((cls, seconds))
        self.sample_seg.append(self.seg.index)

    def _end_session(self, tenant: str, record: bool) -> None:
        if self.cache_stats:
            self.stats(+1)
        self.conn.close()
        self.conn = None
        started = time.perf_counter()
        retries = 0
        while tenant not in self.admin.admin_evict(force=True):
            retries += 1
            if retries > EVICT_RETRIES:
                raise BenchError(f"{tenant} still not evicted after "
                                 f"{EVICT_RETRIES} admin.evict retries")
            time.sleep(0.001)
        self.evict_retries += retries
        if record:
            self._sample("evict", time.perf_counter() - started)

    def _send(self, op: list) -> Any:
        """Send *op* as its request; the raw ``result`` object."""
        kind = op[0]
        if kind == "new":
            return self.conn.request("dmi.create", {
                "entity": "Scrap", "attrs": {"scrapName": op[3],
                                             "scrapPos": ["c", op[4], op[5]]}})
        if kind == "link":
            return self.conn.request("dmi.add_ref", {
                "entity": "Bundle", "id": op[2], "ref": "bundleContent",
                "target_entity": "Scrap", "target_id": self.bind(op[3])})
        if kind in ("move", "rename"):
            attr, value = (("scrapPos", ["c", op[3], op[4]])
                           if kind == "move" else ("scrapName", op[3]))
            return self.conn.request("dmi.update", {
                "entity": "Scrap", "id": self.bind(op[2]), "attr": attr,
                "value": value})
        if kind == "delete":
            return self.conn.request("dmi.delete", {
                "entity": "Scrap", "id": self.bind(op[2])})
        if kind in ("value", "open"):
            return self.conn.request("dmi.value", {
                "entity": "Scrap", "id": self.bind(op[2]), "attr": op[3]})
        if kind == "query":
            return self.conn.request("trim.query", {"patterns": [
                [op[2], CONTENT, "?s"], ["?s", SCRAP_NAME, "?n"]]})
        if kind == "view":
            return self.conn.request("trim.view", {"root": op[2]})
        if kind == "all":
            return self.conn.request("dmi.all", {"entity": "Scrap"})
        raise BenchError(f"unknown op {kind!r}")

    def _check(self, op: list, answer: Dict[str, Any]) -> None:
        """Compare a raw result with the model; apply acked writes."""
        kind, pad = op[0], self.pads[op[1]]
        if kind in WRITE_KINDS:
            if kind == "new":
                self.ids[op[2]] = answer["id"]
            elif kind == "delete" and answer["removed"] != 1:
                self._mismatch(op, f"deleted {answer['removed']} instances")
            apply_op(self.pads, op, self.bind)
        elif kind in ("value", "open"):
            want = pad.value(self.bind(op[2]), op[3])
            got = answer["value"]
            if op[3] == "scrapPos":
                got = tuple(got[1:]) if got[0] == "c" else got
            if got != want:
                self._mismatch(op, f"read {got!r}, model has {want!r}")
        elif kind == "query":
            got = {(row["s"][1], row["n"][2]) for row in answer["bindings"]}
            if got != pad.names(op[2]):
                self._mismatch(op, "query rows differ from the model")
        elif kind == "view":
            if _rows(answer) != pad.closure(op[2]):
                self._mismatch(op, "view differs from the model")
        elif kind == "all":
            if set(answer["ids"]) != set(pad.scraps):
                self._mismatch(op, "dmi.all differs from the model")

    def read_back(self) -> None:
        """Every tenant, read through the service, against the model.

        The pad's own triples, the root bundle one hop deep, then the
        whole closure of each top-level bundle: few requests, each well
        under the protocol's frame bound.
        """
        for tenant, pad in self.pads.items():
            conn = self._connect(tenant)
            try:
                got = _rows(conn.request("trim.select", {"s": PAD_ID}))
                got |= _rows(conn.request("trim.view", {
                    "root": ROOT_BUNDLE, "max_depth": 1}))
                for bundle, row in pad.bundles.items():
                    if row[3] == ROOT_BUNDLE:
                        got |= _rows(conn.request("trim.view",
                                                  {"root": bundle}))
                total = conn.count()
            finally:
                conn.close()
            want = pad.triples()
            if got != want or total != len(want):
                self.mismatches.append(
                    f"{tenant}: service read-back has {total} triples "
                    f"({len(got - want)} unexpected, {len(want - got)} "
                    f"missing) against {len(want)} in the model")


def _rows(answer: Dict[str, Any]) -> set:
    """Wire triples as model tuples."""
    return {(t["s"], t["p"], tuple(t["v"])) for t in answer["triples"]}


# -- one round ----------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank *q*-quantile; demands ten samples beyond it."""
    if len(values) * (1.0 - q) < 10 - 1e-9:
        raise BenchError(f"{len(values)} samples cannot support a "
                         f"p{q * 100:g} (needs ten beyond it)")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_round(plan: Plan, template: str, root: str, spans: Optional[str]
              ) -> Dict[str, Any]:
    """Measure one round in a fresh server; see the module docstring."""
    pads = {t: p.copy() for t, p in plan.pads.items()}
    refs = [reference()]
    started = time.perf_counter()
    shutil.copytree(template, root)
    server = Server(root, log=root + ".log", spans=spans)
    driver = None
    try:
        driver = Driver(server.port, pads)
        if not driver.admin.ping().get("pong"):
            raise BenchError("server did not answer ping")
        spawned = time.perf_counter()
        refs.append(reference())
        # The warm-up opens the tenant pad-edit and pad-browse read, so
        # no open is timed outside pad-reopen.
        warm_start = time.perf_counter()
        driver.run(plan.warmup, record=False)
        setup_parts = [spawned - started, time.perf_counter() - warm_start]
        refs.append(reference())
        setup = sum(part * 2 * REF_SECONDS / (a + b) for part, a, b
                    in zip(setup_parts, refs, refs[1:]))
        live_start = sum(len(p.triples()) for p in pads.values())
        driver.cache_stats = spans is not None
        if driver.cache_stats and driver.conn is not None:
            driver.stats(-1)
        slices = []
        seg = driver.seg = Segments(server.cpu_seconds)
        t0 = time.perf_counter()
        for ops in plan.slices():
            first, first_seg = len(driver.samples), seg.index
            sent = driver.run(ops, record=True)
            seg.cut()
            slices.append(_slice(driver.samples[first:],
                                 driver.sample_seg[first:], sent,
                                 seg.done, first_seg))
        t1 = time.perf_counter()
        rss = server.peak_rss_mb()
        if driver.cache_stats and driver.conn is not None:
            driver.stats(+1)
        live_end = sum(len(p.triples()) for p in pads.values())
        checked = time.perf_counter()
        driver.close()
        driver.read_back()
        code = server.drain()

        if code != 0:
            raise BenchError(f"server drain exited {code}")
    finally:
        if driver is not None:
            driver.close()
        server.kill()
    disk = disk_bytes(root)
    for tenant, pad in pads.items():
        got = stored_triples(os.path.join(root, tenant))
        want = pad.triples()
        if got != want:
            driver.mismatches.append(
                f"{tenant}: offline reopen has {len(got)} triples "
                f"({len(got - want)} unexpected, {len(want - got)} missing) "
                f"against {len(want)} in the model")
    shutil.rmtree(root)
    half = len(slices) // 2
    rates = [s["ops_per_s"] for s in slices]
    factors = [s.factor for s in seg.done]
    return {
        "setup_s": setup, "raw_setup_s": sum(setup_parts),
        "wall_s": sum(s["wall_s"] for s in slices),
        "raw_wall_s": sum(s["raw_wall_s"] for s in slices),
        "host_factor": {"segments": len(factors),
                        "min": min(factors),
                        "median": statistics.median(factors),
                        "max": max(factors)},
        "sent": sum(s["sent"] for s in slices),
        "check_s": time.perf_counter() - checked,
        "ops_per_s": statistics.median(rates),
        "ops_per_s_halves": [statistics.median(rates[:half] or rates),
                             statistics.median(rates[half:])],
        "live_triples": [live_start, live_end],
        "server_rss_mb": rss,
        "disk_bytes_per_triple": disk / live_end,
        "slices": slices,
        "samples": driver.samples,
        "norm_samples": [(cls, sec / seg.done[i].factor) for (cls, sec), i
                         in zip(driver.samples, driver.sample_seg)],
        "failed": driver.failed,
        "mismatches": driver.mismatches,
        "evict_retries": driver.evict_retries, "cache": driver.cache,
        "window": (t0, t1),
    }


def _slice(samples: List[Tuple[str, float]], sample_seg: List[int],
           sent: int, segments: List[Segment], first_seg: int
           ) -> Dict[str, Any]:
    """One slice's rate, server CPU per request and p50s (None for a
    class with fewer than 20 samples), in reference-host time, plus its
    raw rate.  The slice is ``segments[first_seg:]``."""
    own = segments[first_seg:]
    raw_wall = sum(s.wall_s for s in own)
    wall = sum(s.wall_s / s.factor for s in own)
    cpu = sum(s.cpu_s / s.factor for s in own)
    block: Dict[str, Any] = {"sent": sent, "wall_s": wall,
                             "raw_wall_s": raw_wall,
                             "ops_per_s": sent / wall,
                             "raw_ops_per_s": sent / raw_wall,
                             "server_cpu_ms_per_op": cpu * 1000.0 / sent}
    for cls in ("read", "write"):
        ms = [sec * 1000.0 / segments[i].factor
              for (c, sec), i in zip(samples, sample_seg) if c == cls]
        block[f"{cls}_p50_ms"] = statistics.median(ms) if len(ms) >= 20 \
            else None
    return block


# -- the run ------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    head = os.path.join(CHECKOUT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(CHECKOUT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def fingerprint(workload: str, seed: int, seconds: float,
                trace: bool) -> Dict[str, Any]:
    """Host and configuration of a run, stated in its record."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "git_commit": _git_commit(),
            "clients": 1, "server_hash_seed": 0,
            "ref_seconds": REF_SECONDS, "segment_s": SEGMENT_S, **CONFIG}


#: End-to-end metric units, in BENCHMARK.json order.
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "write_p50_ms": "ms",
         "read_p50_ms": "ms", "tail_ms": "ms", "server_cpu_ms_per_op": "ms",
         "server_rss_mb": "MB", "disk_bytes_per_triple": "B"}


#: Each workload's ``tail_ms``: a request class and a fixed quantile,
#: chosen so the rounds' pooled samples have well over ten beyond it
#: (which :func:`percentile` checks).
TAIL = {"pad-edit": ("write", 0.99), "pad-browse": ("read", 0.95),
        "pad-reopen": ("open", 0.85)}


def summarize(workload: str, rounds: List[Dict[str, Any]]
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics and the record's latency detail.

    Every time is in reference-host seconds.  Rate, server CPU and p50s
    are medians over every slice of every round; the tail and the
    detail's percentiles pool every round's samples per class; set-up,
    memory and disk are medians over rounds.  The detail also holds the
    raw (unnormalised) rate and set-up time.
    """
    slices = [s for r in rounds for s in r["slices"]]
    over_slices = lambda key: statistics.median(  # noqa: E731
        s[key] for s in slices if s[key] is not None)
    over_rounds = lambda key: statistics.median(  # noqa: E731
        r[key] for r in rounds)
    metrics = {
        "setup_s": over_rounds("setup_s"),
        "ops_per_s": over_slices("ops_per_s"),
        "write_p50_ms": over_slices("write_p50_ms"),
        "read_p50_ms": over_slices("read_p50_ms"),
        "server_cpu_ms_per_op": over_slices("server_cpu_ms_per_op"),
        "server_rss_mb": over_rounds("server_rss_mb"),
        "disk_bytes_per_triple": over_rounds("disk_bytes_per_triple"),
    }
    pooled: Dict[str, List[float]] = {"open": [], "read": [], "write": []}
    for r in rounds:
        for cls, seconds in r["norm_samples"]:
            if cls in pooled:
                pooled[cls].append(seconds * 1000.0)
    detail: Dict[str, Any] = {
        "samples": {c: len(v) for c, v in pooled.items()},
        "raw_ops_per_s": over_slices("raw_ops_per_s"),
        "raw_setup_s": over_rounds("raw_setup_s")}
    for cls, values in pooled.items():
        for q in (0.5, 0.9, 0.99):
            if len(values) * (1.0 - q) >= 10:
                detail[f"{cls}_p{round(q * 100)}_ms"] = \
                    percentile(values, q)
    tail_cls, tail_q = TAIL[workload]
    metrics["tail_ms"] = percentile(pooled[tail_cls], tail_q)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool,
        emit: Callable[[str], None]) -> Dict[str, Any]:
    """One benchmark run; returns the result object of the last line."""
    from layers import layer_metrics
    plan = generate(workload, seed, seconds)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        started = time.perf_counter()
        template = os.path.join(work, "pads")
        lay_down(plan.pads, template)
        laydown = time.perf_counter() - started
        # Plain runs measure ROUNDS fresh servers; a traced run measures
        # one plain and one traced server over the same plan, so their
        # ops/s ratio is the tracing overhead.
        modes = [None] * ROUNDS if not trace else \
            [None, os.path.join(work, "spans.json")]
        rounds = [run_round(plan, template, os.path.join(work, f"r{i}"),
                            spans)
                  for i, spans in enumerate(modes)]
        record = {"fingerprint": fingerprint(workload, seed, seconds,
                                             trace),
                  "laydown_s": laydown,
                  "requests_per_round": plan.requests(plan.timed),
                  "rounds": [{**{k: v for k, v in r.items() if k not in
                                 ("samples", "norm_samples", "window",
                                  "mismatches")},
                              "mismatches": len(r["mismatches"])}
                             for r in rounds]}
        if trace:
            with open(modes[1]) as f:
                spans = json.load(f)
            metrics, layers_detail = layer_metrics(
                spans, rounds[1], rounds[0]["ops_per_s"])
            record["layers"] = layers_detail
        else:
            metrics, record["latency"] = summarize(workload, rounds)
        emit(json.dumps(record, sort_keys=True))
        mismatches = [m for r in rounds for m in r["mismatches"]]
        for line in mismatches[:20]:
            emit(f"MISMATCH {line}")
        return {"correct": not mismatches,
                "attempted": sum(r["sent"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
