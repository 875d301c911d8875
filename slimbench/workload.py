"""Seeded SLIMPad workloads: pad shapes, operation lists and the model.

Everything here is a pure function of ``(workload, seed, seconds)``: the
same arguments give a byte-identical plan (:meth:`Plan.to_json`).  A plan
holds the pads to lay down before the server starts, an untimed warm-up
prefix and the timed operation list.  Each operation is one request:

====================================  =====================================
``["new", t, "@k", name, x, y]``      ``dmi.create`` a Scrap (handle ``@k``)
``["link", t, bundle, scrap]``        ``dmi.add_ref`` bundle.bundleContent
``["move", t, scrap, x, y]``          ``dmi.update`` scrapPos
``["rename", t, scrap, name]``        ``dmi.update`` scrapName
``["delete", t, scrap]``              ``dmi.delete``
``["value", t, scrap, attr]``         ``dmi.value``
``["open", t, scrap, attr]``          ``dmi.value`` as a session's first
                                      request (cold-opens the tenant)
``["query", t, bundle]``              ``trim.query`` bundle contents + names
``["view", t, bundle]``               ``trim.view`` bundle closure
``["all", t]``                        ``dmi.all`` Scrap
``["evict", t]``                      end of session: disconnect, then
                                      ``admin.evict`` until it evicts ``t``
====================================  =====================================

A scrap is named by its stored id (``scrap-000042``) or, when the run
itself creates it, by the handle ``@k`` of the ``new`` op; the client
binds handles to the ids the server answers with.

The op mixes are fixed-composition blocks, and pad sizes follow fixed
ladders, so every seed does the same amount of each kind of work on
pads of the same sizes: the seed changes which scraps, bundles and
tenants are touched, never how many.  The order of kinds inside the
blocks (and of pad sizes in a pad-reopen lap) is shuffled too, but by
a generator that does not depend on the seed: a request's latency
depends on the one before it (a ``dmi.value`` right after a
``trim.view`` takes twice as long as one after another ``dmi.value``),
so a seed-dependent order would make a p50 that falls between those
modes a property of the seed.  Creates and deletes
are balanced inside every block, so the live triple count stays put.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

WORKLOADS = ("pad-edit", "pad-browse", "pad-reopen")

#: Requests per second each workload roughly sustains on a 2-vCPU host.
#: Only used to turn ``--seconds`` into a fixed operation count; the
#: count, not the clock, ends a run.
NOMINAL_RATE = {"pad-edit": 650, "pad-browse": 500, "pad-reopen": 75}

#: Rounds (fresh server processes) one plain run measures.
ROUNDS = 4

PAD_ID = "slimpad-000001"
ROOT_BUNDLE = "bundle-000001"
#: Attributes of the Fig. 3 model the workloads read back.
SCRAP_ATTRS = ("scrapName", "scrapPos")

TYPE_PROP = "rdf:type"
_SLIM = "slim:BundleScrap."


def type_uri(entity: str) -> str:
    """The ``rdf:type`` value the DMI stores for *entity* instances."""
    return _SLIM + entity


def prop_uri(entity: str, member: str) -> str:
    """The property the DMI stores *entity*'s attribute/ref *member* under."""
    return f"{_SLIM}{entity}.{member}"


CONTENT = prop_uri("Bundle", "bundleContent")
NESTED = prop_uri("Bundle", "nestedBundle")
SCRAP_NAME = prop_uri("Scrap", "scrapName")
SCRAP_POS = prop_uri("Scrap", "scrapPos")


def _s(text: str) -> Tuple[str, str]:
    return ("r", text)


def _lit(value: Any) -> Tuple[str, str, Any]:
    kind = "string" if isinstance(value, str) else "float"
    return ("l", kind, value)


class Pad:
    """One tenant's SLIMPad as the benchmark expects it to be stored.

    ``bundles`` maps id -> ``[name, x, y, parent]`` (``parent`` None for
    the root); ``scraps`` maps id -> ``[name, x, y, bundle]``.  Triples
    are ``(subject, property, node)`` with nodes in the wire's tagged
    form (``("r", uri)`` / ``("l", type, value)``), so a pad compares
    directly with what the service or an offline reopen returns.
    """

    def __init__(self, tenant: str, name: str) -> None:
        self.tenant = tenant
        self.name = name
        self.bundles: Dict[str, list] = {}
        self.scraps: Dict[str, list] = {}
        #: bundle id -> the scrap ids linked into it (insertion order).
        self.members: Dict[str, Dict[str, None]] = {}

    def copy(self) -> "Pad":
        """An independent copy (one per measured round)."""
        clone = Pad(self.tenant, self.name)
        clone.bundles = {k: list(v) for k, v in self.bundles.items()}
        clone.scraps = {k: list(v) for k, v in self.scraps.items()}
        clone.members = {k: dict(v) for k, v in self.members.items()}
        return clone

    # -- mutation -------------------------------------------------------------

    def add_bundle(self, bundle: str, name: str, x: int, y: int,
                   parent: Optional[str]) -> None:
        self.bundles[bundle] = [name, x, y, parent]
        self.members[bundle] = {}

    def add_scrap(self, scrap: str, name: str, x: int, y: int,
                  bundle: Optional[str] = None) -> None:
        self.scraps[scrap] = [name, x, y, None]
        if bundle is not None:
            self.link(bundle, scrap)

    def link(self, bundle: str, scrap: str) -> None:
        self.scraps[scrap][3] = bundle
        self.members[bundle][scrap] = None

    def delete(self, scrap: str) -> None:
        bundle = self.scraps.pop(scrap)[3]
        if bundle is not None:
            del self.members[bundle][scrap]

    # -- shape ---------------------------------------------------------------

    def leaves(self) -> List[str]:
        """Bundles with no nested bundles (where scraps live)."""
        parents = {row[3] for row in self.bundles.values()}
        return sorted(b for b in self.bundles
                      if b not in parents and b != ROOT_BUNDLE) \
            or [ROOT_BUNDLE]

    # -- expected triples -----------------------------------------------------

    def bundle_triples(self, bundle: str) -> List[tuple]:
        """The triples whose subject is *bundle*."""
        name, x, y, _ = self.bundles[bundle]
        width, height = (800.0, 600.0) if bundle == ROOT_BUNDLE \
            else (200.0, 120.0)
        rows = [(bundle, TYPE_PROP, _s(type_uri("Bundle"))),
                (bundle, prop_uri("Bundle", "bundleName"), _lit(name)),
                (bundle, prop_uri("Bundle", "bundlePos"), _lit(f"{x},{y}")),
                (bundle, prop_uri("Bundle", "bundleWidth"), _lit(width)),
                (bundle, prop_uri("Bundle", "bundleHeight"), _lit(height))]
        for child, row in self.bundles.items():
            if row[3] == bundle:
                rows.append((bundle, NESTED, _s(child)))
        for scrap in self.members[bundle]:
            rows.append((bundle, CONTENT, _s(scrap)))
        return rows

    def scrap_triples(self, scrap: str) -> List[tuple]:
        """The triples whose subject is *scrap*."""
        name, x, y, _ = self.scraps[scrap]
        return [(scrap, TYPE_PROP, _s(type_uri("Scrap"))),
                (scrap, SCRAP_NAME, _lit(name)),
                (scrap, SCRAP_POS, _lit(f"{x},{y}"))]

    def pad_triples(self) -> List[tuple]:
        """The triples whose subject is the SlimPad itself."""
        return [(PAD_ID, TYPE_PROP, _s(type_uri("SlimPad"))),
                (PAD_ID, prop_uri("SlimPad", "padName"), _lit(self.name)),
                (PAD_ID, prop_uri("SlimPad", "rootBundle"),
                 _s(ROOT_BUNDLE))]

    def triples(self) -> Set[tuple]:
        """Every triple the tenant should hold."""
        rows = set(self.pad_triples())
        for bundle in self.bundles:
            rows.update(self.bundle_triples(bundle))
        for scrap in self.scraps:
            rows.update(self.scrap_triples(scrap))
        return rows

    def closure(self, bundle: str) -> Set[tuple]:
        """What ``trim.view`` of a leaf *bundle* returns: the bundle's own
        triples and those of every scrap in it."""
        rows = set(self.bundle_triples(bundle))
        for scrap in self.members[bundle]:
            rows.update(self.scrap_triples(scrap))
        return rows

    def names(self, bundle: str) -> Set[Tuple[str, str]]:
        """``(scrap, name)`` pairs the contents-and-names query returns."""
        return {(s, self.scraps[s][0]) for s in self.members[bundle]}

    def value(self, scrap: str, attr: str) -> Any:
        """The decoded value ``dmi.value`` should answer."""
        name, x, y, _ = self.scraps[scrap]
        return name if attr == "scrapName" else (x, y)


def apply_op(pads: Dict[str, Pad], op: list,
             bind: Callable[[str], str]) -> None:
    """Apply one acked mutation to the model (reads change nothing).

    *bind* maps a scrap reference (id or ``@k`` handle) to the id the
    model stores it under.
    """
    kind, tenant = op[0], op[1]
    pad = pads[tenant]
    if kind == "new":
        pad.add_scrap(bind(op[2]), op[3], op[4], op[5])
    elif kind == "link":
        pad.link(op[2], bind(op[3]))
    elif kind == "move":
        row = pad.scraps[bind(op[2])]
        row[1], row[2] = op[3], op[4]
    elif kind == "rename":
        pad.scraps[bind(op[2])][0] = op[3]
    elif kind == "delete":
        pad.delete(bind(op[2]))


WRITE_KINDS = frozenset({"new", "link", "move", "rename", "delete"})


class Plan:
    """Pads to lay down plus the warm-up and timed operation lists.

    The timed list is a whole number of *slices* of ``slice_len`` ops,
    each the same mix of work (whole blocks, or one lap of sessions), so
    per-slice figures are comparable and their median is robust to a
    stretch of slow host time.
    """

    def __init__(self, workload: str, seed: int, pads: Dict[str, Pad],
                 warmup: List[list], timed: List[list],
                 slice_len: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pads = pads
        self.warmup = warmup
        self.timed = timed
        self.slice_len = slice_len

    def slices(self) -> List[List[list]]:
        """The timed list cut into its slices."""
        n = self.slice_len
        return [self.timed[i:i + n] for i in range(0, len(self.timed), n)]

    def to_json(self) -> bytes:
        """Canonical bytes of the whole plan (pads and op lists)."""
        doc = {"workload": self.workload, "seed": self.seed,
               "pads": {t: {"name": p.name, "bundles": p.bundles,
                            "scraps": p.scraps}
                        for t, p in sorted(self.pads.items())},
               "warmup": self.warmup, "timed": self.timed}
        return json.dumps(doc, sort_keys=True,
                          separators=(",", ":")).encode()

    def requests(self, ops: Iterable[list]) -> int:
        """How many requests *ops* sends (``evict`` is housekeeping)."""
        return sum(1 for op in ops if op[0] != "evict")


class _Live:
    """The live scraps of one pad, with O(1) uniform pick and removal."""

    def __init__(self, ids: Iterable[str]) -> None:
        self.items = list(ids)
        self.where = {s: i for i, s in enumerate(self.items)}

    def add(self, scrap: str) -> None:
        self.where[scrap] = len(self.items)
        self.items.append(scrap)

    def remove(self, scrap: str) -> None:
        i = self.where.pop(scrap)
        last = self.items.pop()
        if last != scrap:
            self.items[i] = last
            self.where[last] = i

    def pick(self, rng: random.Random) -> str:
        return self.items[rng.randrange(len(self.items))]


_WORDS = ("lasix", "potassium", "chest film", "cxr", "abg", "creatinine",
          "wbc", "culture", "heparin", "ptt", "echo", "rounds", "plan",
          "todo", "consult", "allergy", "fever", "drain", "line", "vent")


def _name(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)} {rng.randrange(100000)}"


def _pos(rng: random.Random) -> Tuple[int, int]:
    return rng.randrange(800), rng.randrange(600)


def build_pad(tenant: str, rng: random.Random, scraps: int,
              bundles: int) -> Pad:
    """A pad with *bundles* bundles nested two deep under the root and
    *scraps* scraps spread evenly over the leaf bundles."""
    pad = Pad(tenant, f"{tenant} worksheet")
    pad.add_bundle(ROOT_BUNDLE, "", 0, 0, None)
    top = max(1, round(math.sqrt(bundles)))
    ids = [f"bundle-{i:06d}" for i in range(2, bundles + 2)]
    for i, bundle in enumerate(ids):
        parent = ROOT_BUNDLE if i < top else ids[i % top]
        pad.add_bundle(bundle, f"bundle {i}", *_pos(rng), parent)
    leaves = pad.leaves()
    for i in range(1, scraps + 1):
        pad.add_scrap(f"scrap-{i:06d}", _name(rng), *_pos(rng),
                      leaves[i % len(leaves)])
    return pad


class _Ops:
    """Op-list builder that keeps the live-scrap sets and handles."""

    def __init__(self, pads: Dict[str, Pad], rng: random.Random,
                 order: random.Random) -> None:
        self.rng = rng
        #: Orders kinds inside blocks and sessions (seed-independent).
        self.order = order
        self.live = {t: _Live(p.scraps) for t, p in pads.items()}
        self.leaves = {t: p.leaves() for t, p in pads.items()}
        self.handles = 0

    def create(self, tenant: str) -> Tuple[List[list], str]:
        self.handles += 1
        handle = f"@{self.handles}"
        bundle = self.rng.choice(self.leaves[tenant])
        self.live[tenant].add(handle)
        return ([["new", tenant, handle, _name(self.rng), *_pos(self.rng)],
                 ["link", tenant, bundle, handle]], handle)

    def edit(self, tenant: str, kind: str) -> Tuple[List[list], Optional[str]]:
        """One edit of *kind*; returns its requests and the scrap it left
        behind to read back (None for a delete)."""
        if kind == "create":
            return self.create(tenant)
        scrap = self.live[tenant].pick(self.rng)
        if kind == "delete":
            self.live[tenant].remove(scrap)
            return [["delete", tenant, scrap]], None
        if kind == "move":
            return [["move", tenant, scrap, *_pos(self.rng)]], scrap
        return [["rename", tenant, scrap, _name(self.rng)]], scrap

    def readback(self, tenant: str, scrap: str) -> list:
        return ["value", tenant, scrap, self.rng.choice(SCRAP_ATTRS)]


def _edit_block(ops: _Ops, tenant: str) -> List[list]:
    """20 requests: 3 creates (2 requests each), 3 deletes, 4 moves and
    3 renames (16 writes), then 4 read-backs of scraps just edited."""
    kinds = ["create"] * 3 + ["delete"] * 3 + ["move"] * 4 + ["rename"] * 3
    ops.order.shuffle(kinds)
    readable = [i for i, k in enumerate(kinds) if k != "delete"]
    reads = set(ops.order.sample(readable, 4))
    block: List[list] = []
    for i, kind in enumerate(kinds):
        requests, scrap = ops.edit(tenant, kind)
        block.extend(requests)
        if i in reads:
            block.append(ops.readback(tenant, scrap))
    return block


def _zipf(n: int, s: float, rng: random.Random) -> Callable[[], int]:
    cumulative, total = [], 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        cumulative.append(total)
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


def _browse_blocks(pad: Pad, rng: random.Random, order: random.Random,
                   blocks: int) -> List[list]:
    """100-request blocks: 75 Zipf-skewed ``dmi.value`` reads (one of
    which is a ``dmi.all`` every fourth block), 10 two-pattern queries,
    10 leaf-bundle views, and 5 scrap moves."""
    tenant = pad.tenant
    ranked = sorted(pad.scraps)
    rng.shuffle(ranked)
    rank = _zipf(len(ranked), 1.1, rng)
    leaves = pad.leaves()
    out: List[list] = []
    for b in range(blocks):
        block: List[list] = []
        for _ in range(75):
            block.append(["value", tenant, ranked[rank()],
                          rng.choice(SCRAP_ATTRS)])
        if b % 4 == 3:
            block[0] = ["all", tenant]
        for _ in range(10):
            block.append(["query", tenant, rng.choice(leaves)])
            block.append(["view", tenant, rng.choice(leaves)])
        for _ in range(5):
            block.append(["move", tenant, rng.choice(ranked),
                          *_pos(rng)])
        order.shuffle(block)
        out.extend(block)
    return out


def _session(ops: _Ops, tenant: str) -> List[list]:
    """One visit: a cold-opening read, a create, a delete and a move
    (balanced), read-backs of the created and moved scraps, evict."""
    rng = ops.rng
    first = ops.live[tenant].pick(rng)
    session = [["open", tenant, first, rng.choice(SCRAP_ATTRS)]]
    kinds = ["create", "delete", "move"]
    ops.order.shuffle(kinds)
    for kind in kinds:
        requests, scrap = ops.edit(tenant, kind)
        session.extend(requests)
        if scrap is not None:
            session.append(ops.readback(tenant, scrap))
    session.append(["evict", tenant])
    return session


#: pad-reopen's tenant count and the scrap-count ladder they span.
REOPEN_TENANTS = 24
REOPEN_SCRAPS = (50, 2000)


def reopen_sizes(tenants: int = REOPEN_TENANTS) -> List[int]:
    """Log-spaced scrap counts from 50 to 2,000, one per tenant."""
    lo, hi = REOPEN_SCRAPS
    return [round(lo * (hi / lo) ** (i / (tenants - 1)))
            for i in range(tenants)]


def generate(workload: str, seed: int, seconds: float) -> Plan:
    """The plan one run of *workload* executes for *seed*.

    *seconds* sets the timed operation count through
    :data:`NOMINAL_RATE`; the timed list is per round and every round
    replays it from the same laid-down pads.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    order = random.Random(f"{workload}:order")
    per_round = max(1.0, seconds / ROUNDS) * NOMINAL_RATE[workload]
    if workload == "pad-edit":
        pad = build_pad("edit-pad", rng, scraps=2500, bundles=50)
        pads = {pad.tenant: pad}
        ops = _Ops(pads, rng, order)
        warm = [op for _ in range(10) for op in _edit_block(ops, pad.tenant)]
        # Slices of 40 blocks: 640 writes, ten delta folds' worth.
        slice_len = 800
        timed = [op for _ in range(40 * max(1, round(per_round / slice_len)))
                 for op in _edit_block(ops, pad.tenant)]
    elif workload == "pad-browse":
        pad = build_pad("browse-pad", rng, scraps=6000, bundles=120)
        pads = {pad.tenant: pad}
        # Slices of 4 blocks, each holding one dmi.all; the warm-up is
        # one more slice over the same Zipf ranking.
        slice_len = 400
        blocks = _browse_blocks(
            pad, rng, order, 4 * (1 + max(1, round(per_round / slice_len))))
        warm, timed = blocks[:slice_len], blocks[slice_len:]
    else:
        names = [f"ward-{i:03d}" for i in range(REOPEN_TENANTS)]
        sizes = reopen_sizes()
        rng.shuffle(sizes)
        pads = {t: build_pad(t, rng, scraps=n, bundles=max(2, n // 50))
                for t, n in zip(names, sizes)}
        ops = _Ops(pads, rng, order)
        # The warm-up visits the same four pad sizes for every seed.
        by_size = sorted(names, key=lambda t: len(pads[t].scraps))
        warm = [op for t in order.sample(by_size[3::6], 4)
                for op in _session(ops, t)]
        # Whole laps over the tenants, so every seed opens each pad
        # size the same number of times.
        laps = max(1, round(per_round / 7 / REOPEN_TENANTS))
        slice_len = 8 * REOPEN_TENANTS  # one lap: 7 requests + evict each
        timed = []
        for _ in range(laps):
            lap = list(by_size)
            order.shuffle(lap)
            timed.extend(op for t in lap for op in _session(ops, t))
    return Plan(workload, seed, pads, warm, timed, slice_len)
