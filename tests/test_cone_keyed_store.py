"""The result store is keyed on cone content, not on circuit names.

A group's fragment depends only on its cone and the options, so a
renamed copy of a circuit must be served from the store on every group,
with the same mapped network a cold map of the copy would produce.  A
store shared across circuits is also exactly where a row that reads a
signal outside its cone could surface, so the structural reply checks
(outputs *and* inputs) must hold on every reuse path, whatever
``verify_fragments`` says.
"""

from __future__ import annotations

import pytest

from repro.circuits import build
from repro.mapping import hyde_map, map_per_output
from repro.mapping import parallel
from repro.mapping.parallel import (
    GroupResult,
    GroupTask,
    TaskPolicy,
    _replay_result,
    _validate_reply,
    cone_blif,
)
from repro.decompose import DecompositionOptions
from repro.network import check_equivalence, to_blif
from repro.service import ResultStore

FLOWS = [hyde_map, map_per_output]


def _renamed(circuit: str, name: str):
    net = build(circuit)
    net.name = name
    return net


def _body(blif: str) -> str:
    """BLIF after the ``.model`` line (the mapped network's own name)."""
    return blif.split("\n", 1)[1]


def _foreign_fragment(group) -> str:
    """Drives every group output from a PI no cone declares."""
    lines = [".model bad", ".inputs foreign_pi", ".outputs " + " ".join(group)]
    for out in group:
        lines += [f".names foreign_pi {out}", "1 1"]
    return "\n".join(lines + [".end"]) + "\n"


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("circuit", ["misex1", "b9"])
def test_renamed_circuit_hits_every_group(flow, circuit):
    store = ResultStore(":memory:")
    first = flow(build(circuit), 5, cache=store)
    groups = first.details["cache"]["misses"]
    assert groups > 0 and first.details["cache"]["hits"] == 0

    copy = _renamed(circuit, f"{circuit}_renamed")
    second = flow(copy, 5, cache=store)
    assert second.details["cache"] == {
        "hits": groups, "misses": 0, "rejected": 0,
    }
    assert second.lut_count == first.lut_count
    assert second.depth == first.depth
    assert check_equivalence(copy, second.network) is None

    cold = flow(
        _renamed(circuit, f"{circuit}_renamed"), 5,
        cache=ResultStore(":memory:"),
    )
    assert _body(to_blif(second.network)) == _body(to_blif(cold.network))
    # Same rows, same payload bytes: the store holds no circuit name.
    assert [f["blif"] for f in second.details["fragments"]] == [
        f["blif"] for f in cold.details["fragments"]
    ]


def test_cone_text_carries_no_circuit_name():
    net = build("misex1")
    copy = _renamed("misex1", "another_name")
    group = net.output_names[:3]
    assert cone_blif(net, group) == cone_blif(copy, group)
    assert "misex1" not in cone_blif(net, group)


# --------------------------------------------------------------------- #
# Fragments that read inputs outside their cone
# --------------------------------------------------------------------- #


def test_verified_row_reading_a_foreign_input_is_recomputed():
    """A row stamped verified skips equivalence, never the shape check."""
    store = ResultStore(":memory:")
    before = hyde_map(build("misex1"), 5, cache=store)
    frag = before.details["fragments"][0]
    store.put(
        frag["key"], _foreign_fragment(frag["group"]),
        info={"outputs": frag["group"]}, verified=True,
    )

    after = hyde_map(build("misex1"), 5, cache=store)
    groups = len(before.details["fragments"])
    assert after.details["cache"] == {
        "hits": groups - 1, "misses": 1, "rejected": 1,
    }
    assert to_blif(after.network) == to_blif(before.network)
    # The recompute overwrote the bad row with the real fragment.
    assert store.get(frag["key"])["blif"] == frag["blif"]


def test_journal_replay_of_a_foreign_input_fragment_is_refused():
    net = build("misex1")
    group = net.output_names[:2]
    task = GroupTask(
        blif_text=cone_blif(net, group), group=list(group), gi=0,
        options=DecompositionOptions(k=5),
    )
    assert _replay_result(task, {"blif": _foreign_fragment(group)}) is None


def test_live_reply_reading_a_foreign_input_is_rejected_unverified(
    monkeypatch,
):
    net = build("misex1")
    group = net.output_names[:2]
    task = GroupTask(
        blif_text=cone_blif(net, group), group=list(group), gi=0,
        options=DecompositionOptions(k=5),
    )
    bad = GroupResult(gi=0, blif_text=_foreign_fragment(group))
    policy = TaskPolicy(verify_fragments=False)
    assert _validate_reply(task, bad, policy) == (
        "corrupt_reply: fragment reads unknown inputs"
    )

    # End to end: the first attempt's bad reply walks the ladder
    # instead of crashing the splice.
    real = parallel.decompose_group_task
    calls = []

    def first_reply_bad(trial):
        calls.append(trial.gi)
        if len(calls) == 1:
            return GroupResult(
                gi=trial.gi, blif_text=_foreign_fragment(trial.group)
            )
        return real(trial)

    monkeypatch.setattr(parallel, "decompose_group_task", first_reply_bad)
    result = hyde_map(build("misex1"), 5, policy=policy)
    assert check_equivalence(build("misex1"), result.network) is None
    (entry,) = result.details["degraded"]
    assert entry["causes"] == ["corrupt_reply: fragment reads unknown inputs"]
    assert entry["resolution"] == "retry"
