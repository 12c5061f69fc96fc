"""Independent output check for the benchmark.

A mapped network is judged by evaluating it and its source network here,
with a truth-table evaluator of the benchmark's own: every signal is a
bit-parallel integer over a set of input vectors, and each node's local
function is applied by Shannon expansion of its truth-table mask.  The
only thing taken from the mapper is the public netlist data (names,
fan-ins, masks).  :func:`check_mapped` also calls the program's own
``check_equivalence``; both must agree that the networks are equal.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

#: Networks with at most this many inputs are checked exhaustively.
EXHAUSTIVE_INPUTS = 12
#: Random vectors used above that width.
RANDOM_VECTORS = 1024


def _plan(net) -> List[Tuple[str, List[str], int, int]]:
    """Internal nodes in dependency order (Kahn), as (name, fanins, n, mask)."""
    nodes = {name: net.node(name) for name in net.node_names()}
    waiting = {
        name: sum(1 for fi in node.fanins if fi in nodes)
        for name, node in nodes.items()
    }
    users: Dict[str, List[str]] = {}
    for name, node in nodes.items():
        for fi in node.fanins:
            if fi in nodes:
                users.setdefault(fi, []).append(name)
    ready = sorted(name for name, count in waiting.items() if count == 0)
    order = []
    while ready:
        name = ready.pop()
        order.append(name)
        for user in users.get(name, ()):
            waiting[user] -= 1
            if waiting[user] == 0:
                ready.append(user)
    if len(order) != len(nodes):
        raise ValueError(f"{net.name}: combinational cycle")
    return [
        (
            name,
            list(nodes[name].fanins),
            nodes[name].table.num_inputs,
            nodes[name].table.mask,
        )
        for name in order
    ]


def _apply(mask: int, n: int, xs: Sequence[int], ones: int) -> int:
    """Bit-parallel value of a truth table (input j is bit j of the row)."""
    if n == 0:
        return ones if mask & 1 else 0
    half = 1 << (n - 1)
    lo = mask & ((1 << half) - 1)
    hi = mask >> half
    top = xs[n - 1]
    if lo == hi:
        return _apply(lo, n - 1, xs, ones)
    return (top & _apply(hi, n - 1, xs, ones)) | (
        ~top & ones & _apply(lo, n - 1, xs, ones)
    )


def input_vectors(
    inputs: Sequence[str], seed: int, tag: str
) -> Tuple[Dict[str, int], int]:
    """Per-input bit vectors and their width: exhaustive or seeded random."""
    n = len(inputs)
    if n <= EXHAUSTIVE_INPUTS:
        width = 1 << n
        ones = (1 << width) - 1
        patterns = {}
        for j, pi in enumerate(inputs):
            bits = 0
            for row in range(width):
                if (row >> j) & 1:
                    bits |= 1 << row
            patterns[pi] = bits
        return patterns, width
    rng = random.Random(seed * 1000003 + zlib.crc32(tag.encode()))
    return {pi: rng.getrandbits(RANDOM_VECTORS) for pi in inputs}, RANDOM_VECTORS


def evaluate(net, patterns: Dict[str, int], width: int) -> Dict[str, int]:
    """Output name -> bit vector of ``net`` under ``patterns``."""
    ones = (1 << width) - 1
    values = dict(patterns)
    for name, fanins, n, mask in _plan(net):
        values[name] = _apply(mask, n, [values[fi] for fi in fanins], ones)
    return {out: values[driver] for out, driver in net.outputs}


def check_mapped(source, mapped, seed: int) -> Optional[str]:
    """``None`` when ``mapped`` implements ``source``, else why not."""
    from repro.network import check_equivalence

    if sorted(source.inputs) != sorted(mapped.inputs):
        return "input sets differ"
    if sorted(source.output_names) != sorted(mapped.output_names):
        return "output sets differ"
    patterns, width = input_vectors(sorted(source.inputs), seed, source.name)
    want = evaluate(source, patterns, width)
    got = evaluate(mapped, patterns, width)
    for out in sorted(want):
        if want[out] != got[out]:
            return f"simulation: output {out} differs"
    bad = check_equivalence(source, mapped)
    if bad is not None:
        return f"check_equivalence: output {bad} differs"
    return None


def corrupt_copy(mapped, seed: int, tag: str):
    """A copy of ``mapped`` with one LUT bit flipped where it shows.

    The flipped bit is the row of the first output's driver LUT that the
    first input vector (of the set :func:`check_mapped` draws for a
    source named ``tag``) selects, so the copy is wrong on that vector.
    """
    from repro.boolfunc import TruthTable

    bad = mapped.copy(mapped.name)
    patterns, width = input_vectors(sorted(bad.inputs), seed, tag)
    values = dict(patterns)
    ones = (1 << width) - 1
    for name, fanins, n, mask in _plan(bad):
        values[name] = _apply(mask, n, [values[fi] for fi in fanins], ones)
    for _, driver in bad.outputs:
        if bad.is_input(driver):
            continue
        node = bad.node(driver)
        row = sum(
            ((values[fi] & 1) << j) for j, fi in enumerate(node.fanins)
        )
        bad.replace_node(
            driver,
            node.fanins,
            TruthTable(node.table.num_inputs, node.table.mask ^ (1 << row)),
        )
        return bad
    raise ValueError(f"{mapped.name}: no output is driven by a LUT")


def digest(blif_text: str) -> str:
    """SHA-256 of a mapped BLIF."""
    return hashlib.sha256(blif_text.encode()).hexdigest()
