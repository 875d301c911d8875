"""``repro serve`` with layer spans recorded around its public entry points.

::

    PYTHONPATH=src python3 slimbench/traced_serve.py --spans spans.json \\
        serve ROOT --port 0

Installs wrappers on the entry points of each layer — protocol, server
read/write functions, registry, DMI runtime, TRIM, query, views, store,
WAL, persistence — plus an ``os.fsync`` hook and a ``gc.callbacks`` hook,
then hands off to :func:`repro.cli.main`.  Nothing under ``src/`` changes.
Spans stay in memory and are written to ``--spans`` once the server has
drained.

A span is ``[id, name, start, end, parent, request, count]``: ``parent``
is the id of the enclosing span on the same thread (-1 at top level),
``request`` the sequence number of the request being served and
``count`` the work the call did (triples, rows or bytes, per entry
point).  A call into a layer from inside the same layer is not a
boundary and gets no span of its own.  The benchmark drives one request
at a time, which is what lets spans on the executor and writer threads
be tagged with the request the event loop last decoded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

now = time.perf_counter


class Tracer:
    """In-memory span recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: request sequence -> [op, decode end time]
        self.requests: Dict[int, list] = {}
        self.request = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Optional[tuple]:
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, name: str, start: float, end: float, parent: int,
               count: float = 1) -> None:
        self.spans.append([next(self._ids), name, start, end, parent,
                           self.request, count])

    def traced(self, original: Callable, name: str, layer: str,
               count: Optional[Callable[..., float]] = None) -> Callable:
        """*original* wrapped to record one span per call.

        *count* gets ``(args, kwargs, result)`` and returns the span's
        work count (default 1).
        """
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return original(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, layer))
            result, ok = None, False
            start = now()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = now()
                stack.pop()
                work = count(args, kwargs, result) if ok and count else \
                    (1 if ok else 0)
                tracer.spans.append([sid, name, start, end, parent,
                                     tracer.request, work])

        return traced

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             count: Optional[Callable[..., float]] = None) -> None:
        """Replace ``owner.attr`` by :meth:`traced` of it."""
        setattr(owner, attr,
                self.traced(getattr(owner, attr), name, layer, count))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    from repro.dmi.runtime import DmiRuntime
    from repro.service import protocol, registry, server
    from repro.triples import persistence, wal
    from repro.triples.store import TripleStore
    from repro.triples.trim import TrimManager

    # protocol: request frames decoded, response frames encoded.
    decode = protocol.decode_frame

    @functools.wraps(decode)
    def decode_frame(line):
        start = now()
        envelope = decode(line)
        end = now()
        tracer.request = len(tracer.requests)
        tracer.requests[tracer.request] = [envelope.get("op"), end]
        tracer.record("protocol.decode", start, end, -1, len(line))
        return envelope

    protocol.decode_frame = decode_frame
    tracer.wrap(protocol, "encode_frame", "protocol.encode", "protocol",
                lambda a, k, r: len(r))

    # server: the read functions on the executor, the mutation thunks on
    # the tenant's writer thread, and the queue wait between submit and
    # thunk start.
    for op, fn in list(server.READS.items()):
        server.READS[op] = tracer.traced(fn, "server.read", "server")
    submit = registry.TenantHandle.submit

    @functools.wraps(submit)
    def traced_submit(self, fn, loop=None, future=None):
        queued = now()
        request = tracer.request

        def thunk():
            tracer.spans.append([next(tracer._ids), "registry.queue",
                                 queued, now(), -1, request, 1])
            return fn()

        return submit(self, tracer.traced(thunk, "server.write", "server"),
                      loop, future)

    registry.TenantHandle.submit = traced_submit
    tracer.wrap(registry.TenantHandle, "__init__", "registry.open",
                "registry")
    tracer.wrap(registry.PadRegistry, "evict_idle", "registry.evict",
                "registry", lambda a, k, r: len(r))

    # DMI runtime entry points the service calls.
    for method in ("create", "update", "add_ref", "delete", "get",
                   "value", "all"):
        tracer.wrap(DmiRuntime, method, f"dmi.{method}", "dmi")

    # TRIM facade (the select cache lives behind select/query).
    for method in ("create", "remove", "remove_about", "select", "count",
                   "values_of", "value_of", "literal_of"):
        tracer.wrap(TrimManager, method, f"trim.{method}", "trim")
    tracer.wrap(TrimManager, "query", "query.exec", "query",
                lambda a, k, r: len(r))
    tracer.wrap(TrimManager, "commit", "wal.commit", "wal.commit")
    tracer.wrap(server, "reachable_triples", "views.closure", "views",
                lambda a, k, r: len(r))

    # store: applies (triples changed), the deferred bulk flush where
    # concurrent stores rebuild copy-on-write buckets, reads, restores.
    size = lambda a, k, r: r  # noqa: E731
    tracer.wrap(TripleStore, "add", "store.add", "store",
                lambda a, k, r: int(r))
    tracer.wrap(TripleStore, "remove", "store.remove", "store")
    tracer.wrap(TripleStore, "discard", "store.discard", "store",
                lambda a, k, r: int(r))
    tracer.wrap(TripleStore, "add_all", "store.add_all", "store", size)
    tracer.wrap(TripleStore, "remove_matching", "store.remove_matching",
                "store", size)
    tracer.wrap(TripleStore, "_flush_bulk", "store.flush", "store",
                lambda a, k, r: 0)
    tracer.wrap(TripleStore, "select", "store.select", "store",
                lambda a, k, r: len(r))
    tracer.wrap(TripleStore, "count", "store.count", "store")
    tracer.wrap(TripleStore, "restore_rows", "store.restore", "store",
                size)
    match = TripleStore.match

    @functools.wraps(match)
    def traced_match(self, *args, **kwargs):
        top = tracer.top()
        if top is None or top[1] != "query":
            return match(self, *args, **kwargs)
        return _counted(tracer, match(self, *args, **kwargs), top[0])

    TripleStore.match = traced_match

    # WAL: group commit, the log write it makes, compactions, fsyncs.
    log_commit = wal.WriteAheadLog.commit

    @functools.wraps(log_commit)
    def traced_log_commit(self):
        before = os.path.getsize(self.path)
        start = now()
        group = log_commit(self)
        end = now()
        top = tracer.top()
        tracer.record("wal.log", start, end, top[0] if top else -1,
                      os.path.getsize(self.path) - before)
        return group

    wal.WriteAheadLog.commit = traced_log_commit
    tracer.wrap(wal.Durability, "delta_compact", "wal.delta_compact",
                "wal.delta_compact")
    tracer.wrap(wal.Durability, "compact", "wal.compact", "wal.compact")
    tracer.wrap(os, "fsync", "fsync", "fsync")

    # persistence: snapshot load (triples restored) and save (bytes).
    tracer.wrap(persistence, "load_snapshot", "persistence.load",
                "persistence", lambda a, k, r: len(k["store"]))

    def saved(args, kwargs, result):
        return [os.path.getsize(args[1]), len(args[0])]

    tracer.wrap(persistence, "save_snapshot", "persistence.save",
                "persistence", saved)

    # gc: every collection as a span (it overlaps whatever it paused).
    started: Dict[int, float] = {}

    def on_gc(phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            started[threading.get_ident()] = now()
        else:
            begin = started.pop(threading.get_ident(), None)
            if begin is not None:
                tracer.record(f"gc.gen{info['generation']}", begin, now(),
                              -1)

    gc.callbacks.append(on_gc)


def _counted(tracer: Tracer, rows, parent: int):
    """Yield *rows*, recording how many were produced under *parent*."""
    produced = 0
    try:
        for row in rows:
            produced += 1
            yield row
    finally:
        t = now()
        tracer.record("store.rows", t, t, parent, produced)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="where to write the spans after the drain")
    args, rest = parser.parse_known_args(argv)
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main
    code = repro_main(rest)
    with open(args.spans, "w") as f:
        json.dump({"spans": tracer.spans,
                   "requests": {str(k): v for k, v in
                                tracer.requests.items()}}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
