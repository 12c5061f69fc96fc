"""Node simplification with satisfiability don't cares (SIS ``simplify``).

The paper's multi-level script runs ``(full_)simplify`` between passes to
"take advantage of extracting the local don't care set".  This module
implements the satisfiability-don't-care part: fan-in patterns of a node
that no primary-input assignment can produce are don't cares of the
node's local function, so the local cover can be re-minimised against
them (here: interval ISOP + support minimisation).

The care set is computed exactly by exhaustive bit-parallel simulation,
which bounds the pass to circuits with a moderate primary-input count —
mirroring SIS, where full_simplify is also reserved for the smaller
circuits.
"""

from __future__ import annotations

from typing import Dict, List

from ..bdd import BddManager
from ..bdd.isop import isop
from ..network import Network
from ..network.simulate import simulate_all_signals
from .sop import table_from_cover

__all__ = ["simplify_with_sdc", "node_care_set"]


def node_care_set(
    words: Dict[str, int], fanins: List[str], num_vectors: int
) -> int:
    """Bitmask over fan-in patterns: which patterns actually occur."""
    care = 0
    for vector in range(num_vectors):
        pattern = 0
        for j, fi in enumerate(fanins):
            if (words[fi] >> vector) & 1:
                pattern |= 1 << j
        care |= 1 << pattern
    return care


def simplify_with_sdc(net: Network, max_pis: int = 14) -> int:
    """Re-minimise every node against its satisfiability don't cares.

    A node is rewritten when the don't-care-aware cover has fewer
    literals or fewer inputs than the current one.  Returns the number of
    nodes improved; no-op on circuits with more than ``max_pis`` primary
    inputs.
    """
    if len(net.inputs) > max_pis or not net.inputs:
        return 0
    num_vectors = 1 << len(net.inputs)
    patterns = {
        pi: [(v >> j) & 1 for v in range(num_vectors)]
        for j, pi in enumerate(net.inputs)
    }
    words = simulate_all_signals(net, patterns, num_vectors)

    improved = 0
    for name in net.topological_order():
        node = net.node(name)
        n = node.table.num_inputs
        if n < 2:
            continue
        care = node_care_set(words, node.fanins, num_vectors)
        full = (1 << (1 << n)) - 1
        if care == full:
            continue  # every pattern reachable: no SDC to exploit
        manager = BddManager(n)
        levels = list(range(n))
        on = manager.from_truth_table(node.table.mask & care, levels)
        upper = manager.from_truth_table(node.table.mask | (full ^ care), levels)
        cover = isop(manager, on, upper)
        # Rebuild a completely specified table from the minimised cover.
        new_table = table_from_cover(
            [frozenset(cube.items()) for cube in cover], n
        )
        reduced, kept = new_table.minimize_support()
        old_cover = isop(
            manager, manager.from_truth_table(node.table.mask, levels),
            manager.from_truth_table(node.table.mask, levels),
        )
        old_cost = (node.table.num_inputs, sum(len(c) for c in old_cover))
        new_cost = (reduced.num_inputs, sum(len(c) for c in cover))
        if new_cost < old_cost:
            net.replace_node(
                name, [node.fanins[i] for i in kept], reduced
            )
            improved += 1
            # The node's output column is unchanged on the care set, so
            # the simulation words stay valid for downstream nodes.
    return improved
