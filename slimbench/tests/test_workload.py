"""Tests for the benchmark's workload generator.

Run from the checkout root::

    python -m pytest slimbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workload  # noqa: E402
from workload import WORKLOADS, apply_op, generate  # noqa: E402


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_plan(name):
    first = generate(name, 7, 3).to_json()
    assert generate(name, 7, 3).to_json() == first
    assert generate(name, 8, 3).to_json() != first


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_change_content_not_amounts(name):
    kinds = lambda plan: sorted(op[0] for op in plan.timed)  # noqa: E731
    sizes = lambda plan: sorted(len(p.scraps)  # noqa: E731
                                for p in plan.pads.values())
    opened = lambda plan: sorted(len(plan.pads[op[1]].scraps)  # noqa: E731
                                 for op in plan.warmup if op[0] == "open")
    a, b = generate(name, 1, 6), generate(name, 2, 6)
    assert kinds(a) == kinds(b)
    assert sizes(a) == sizes(b)
    assert opened(a) == opened(b)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_share_the_order_of_kinds(name):
    kinds = lambda plan: [op[0] for op in plan.warmup + plan.timed]  # noqa
    sizes = lambda plan: [len(plan.pads[op[1]].scraps)  # noqa: E731
                          for op in plan.timed if op[0] == "open"]
    a, b = generate(name, 1, 6), generate(name, 2, 6)
    assert kinds(a) == kinds(b)
    assert sizes(a) == sizes(b)


@pytest.mark.parametrize("name", WORKLOADS)
def test_creates_and_deletes_balance(name):
    plan = generate(name, 3, 6)
    for ops in (plan.warmup, plan.timed):
        news = sum(op[0] == "new" for op in ops)
        assert news == sum(op[0] == "link" for op in ops)
        assert news == sum(op[0] == "delete" for op in ops)
    pads = {t: p.copy() for t, p in plan.pads.items()}
    before = sum(len(p.triples()) for p in pads.values())
    for op in plan.warmup + plan.timed:
        apply_op(pads, op, lambda ref: ref)
    assert sum(len(p.triples()) for p in pads.values()) == before


def test_write_share_and_session_shape():
    edit = generate("pad-edit", 1, 6).timed
    writes = sum(op[0] in workload.WRITE_KINDS for op in edit)
    assert writes / len(edit) == pytest.approx(0.8)
    browse = generate("pad-browse", 1, 6).timed
    writes = sum(op[0] in workload.WRITE_KINDS for op in browse)
    assert writes / len(browse) == pytest.approx(0.05)
    reopen = generate("pad-reopen", 1, 6)
    opens = [op[1] for op in reopen.timed if op[0] == "open"]
    evicts = [op[1] for op in reopen.timed if op[0] == "evict"]
    assert opens == evicts
    # Whole laps: every tenant is visited equally often.
    assert len(set(opens.count(t) for t in reopen.pads)) == 1


def _in_process(plan):
    """Lay the plan's pads into one in-memory TRIM per tenant and run its
    ops through the DMI runtime the service's handlers call."""
    from harness import _node
    from repro.slimpad.dmi import SlimPadDMI
    from repro.triples.trim import TrimManager
    from repro.triples.triple import Resource, Triple
    from repro.util.coordinates import Coordinate

    runtimes = {}
    for tenant, pad in plan.pads.items():
        trim = TrimManager()
        trim.bulk_ingest(Triple(Resource(s), Resource(p), _node(v))
                         for s, p, v in pad.triples())
        for resource in trim.store.resources():
            trim.ids.observe(resource.uri)
        runtimes[tenant] = SlimPadDMI(trim=trim).runtime
    model = {t: p.copy() for t, p in plan.pads.items()}
    ids = {}
    bind = lambda ref: ids.get(ref, ref)  # noqa: E731
    for op in plan.warmup + plan.timed:
        kind, rt = op[0], runtimes[op[1]]
        if kind == "new":
            ids[op[2]] = rt.create("Scrap", scrapName=op[3],
                                   scrapPos=Coordinate(op[4], op[5])).id
        elif kind == "link":
            rt.add_ref(rt.get("Bundle", op[2]), "bundleContent",
                       rt.get("Scrap", bind(op[3])))
        elif kind == "move":
            rt.update(rt.get("Scrap", bind(op[2])), "scrapPos",
                      Coordinate(op[3], op[4]))
        elif kind == "rename":
            rt.update(rt.get("Scrap", bind(op[2])), "scrapName", op[3])
        elif kind == "delete":
            assert rt.delete(rt.get("Scrap", bind(op[2]))) == 1
        elif kind in ("value", "open"):
            got = rt.value(rt.get("Scrap", bind(op[2])), op[3])
            want = model[op[1]].value(bind(op[2]), op[3])
            assert (got if op[3] == "scrapName" else (got.x, got.y)) == want
        apply_op(model, op, bind)
    return runtimes, model


@pytest.mark.parametrize("name", ["pad-edit", "pad-reopen"])
def test_op_list_on_in_process_trim_matches_model(name):
    from harness import canonical
    runtimes, model = _in_process(generate(name, 5, 3))
    for tenant, rt in runtimes.items():
        stored = {canonical(t.subject.uri, t.property.uri, t.value)
                  for t in rt.trim.store}
        assert stored == model[tenant].triples()
