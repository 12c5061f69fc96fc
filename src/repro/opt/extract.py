"""Algebraic multi-level optimisation — the role of SIS's algebraic script.

The paper prepares large benchmark circuits with SIS's algebraic script
before decomposition.  This module provides the equivalent passes over
our :class:`~repro.network.Network`:

* :func:`factor_node` — single-node algebraic factoring (split a fat SOP
  node into divisor/quotient/remainder nodes);
* :func:`extract_kernels` — network-level common-kernel extraction:
  find a kernel shared by several node covers (or worth factoring out of
  one), make it a new node, and divide it out everywhere;
* :func:`algebraic_script` — the iterate-to-fixpoint driver mirroring
  what ``script.algebraic`` does in SIS at the fidelity this flow needs.

All passes preserve functionality (cover semantics are exact); tests
verify equivalence on every transformation.

Most of the script's work repeats: ``extract_kernels`` runs up to four
rounds over every node and ``factor_node`` then revisits the same
tables.  One :class:`ScriptCache` per :func:`algebraic_script` call
memoises covers and kernels by ``(num_inputs, mask)``, kernel signatures
by ``(fanins, num_inputs, mask)`` and factoring decisions by
``(num_inputs, mask, min_saving)``.  Each is a pure function of its key,
so the script's decisions and output are those of recomputing; a pass
called on its own builds a cache for that call.  Nothing is cached
across runs, so a cold run and a warm run do the same work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..boolfunc import TruthTable
from ..network import Network, sweep
from .kernels import kernels
from .sop import (
    Cover,
    Literal,
    cover_divide,
    cover_from_table,
    cover_literals,
    table_from_cover,
)

__all__ = ["factor_node", "extract_kernels", "algebraic_script", "ScriptCache"]

_MAX_COVER_INPUTS = 12  # beyond this, ISOP covers get too big to chew on

# A kernel as its sorted cubes, each a sorted tuple of literals
# (:meth:`KernelEntry.key`): far smaller than frozenset cubes.
KernelKey = Tuple[Tuple[Literal, ...], ...]
# A kernel's signature: its cubes as sorted (signal name, polarity) pairs,
# so kernels of different nodes over the same signals compare equal.
Signature = Tuple[Tuple[Tuple[str, int], ...], ...]
# The factoring decision for a table: (kernel, quotient, remainder).
Factoring = Tuple[Cover, Cover, Cover]


class ScriptCache:
    """Memo tables for one :func:`algebraic_script` run.

    Every entry is a pure function of its key, so a hit returns exactly
    what recomputing would:

    * the ISOP cover and its multi-cube kernels, keyed on the table
      ``(num_inputs, mask)``;
    * the kernels' signatures, keyed on ``(fanins, num_inputs, mask)``;
    * the factoring decision, keyed on ``(num_inputs, mask, min_saving)``.

    Kernels are kept as :data:`KernelKey` tuples and cubes are shared
    through an intern pool: on a 16-input windowed SOP circuit with
    12,000 kernels that holds the cache near 3 MB, where lists of
    :class:`KernelEntry` and unshared signatures took 37 MB and raised
    the mapping's peak RSS by a third.  The cache lives for one run and
    is never shared between runs.
    """

    __slots__ = ("_covers", "_kernels", "_signatures", "_factorings", "_pool")

    def __init__(self) -> None:
        self._covers: Dict[Tuple[int, int], Cover] = {}
        self._kernels: Dict[Tuple[int, int], List[KernelKey]] = {}
        self._signatures: Dict[
            Tuple[Tuple[str, ...], int, int], List[Signature]
        ] = {}
        self._factorings: Dict[Tuple[int, int, int], Optional[Factoring]] = {}
        self._pool: Dict[tuple, tuple] = {}

    def _intern(self, value: tuple) -> tuple:
        return self._pool.setdefault(value, value)

    def cover(self, table: TruthTable) -> Cover:
        """The table's ISOP cover (callers must not mutate it)."""
        key = (table.num_inputs, table.mask)
        cover = self._covers.get(key)
        if cover is None:
            cover = self._covers[key] = cover_from_table(table)
        return cover

    def kernels(self, table: TruthTable) -> List[KernelKey]:
        """Kernels of the table's cover with at least two cubes."""
        key = (table.num_inputs, table.mask)
        found = self._kernels.get(key)
        if found is None:
            found = self._kernels[key] = [
                tuple(self._intern(cube) for cube in entry.key())
                for entry in kernels(self.cover(table))
                if len(entry.kernel) >= 2
            ]
        return found

    def signatures(
        self, table: TruthTable, fanins: List[str]
    ) -> List[Signature]:
        """The signature over ``fanins`` of each multi-cube kernel."""
        key = (tuple(fanins), table.num_inputs, table.mask)
        found = self._signatures.get(key)
        if found is None:
            intern = self._intern
            found = self._signatures[key] = [
                tuple(sorted(
                    intern(tuple(sorted(
                        intern((fanins[idx], pol)) for idx, pol in cube
                    )))
                    for cube in kernel
                ))
                for kernel in self.kernels(table)
            ]
        return found

    def factoring(self, table: TruthTable, min_saving: int) -> Optional[Factoring]:
        """The best literal-saving kernel division of the table's cover,
        or None when no kernel saves at least ``min_saving`` literals."""
        key = (table.num_inputs, table.mask, min_saving)
        if key not in self._factorings:
            self._factorings[key] = self._best_factoring(table, min_saving)
        return self._factorings[key]

    def _best_factoring(
        self, table: TruthTable, min_saving: int
    ) -> Optional[Factoring]:
        cover = self.cover(table)
        if len(cover) < 2:
            return None
        before = cover_literals(cover)
        best: Optional[Tuple[int, Factoring]] = None
        for key in self.kernels(table):
            kernel: Cover = [frozenset(cube) for cube in key]
            quotient, remainder = cover_divide(cover, kernel)
            if not quotient:
                continue
            after = (
                cover_literals(kernel)
                + cover_literals(quotient)
                + len(quotient)  # each quotient cube gains the divisor literal
                + cover_literals(remainder)
            )
            saving = before - after
            if saving >= min_saving and (best is None or saving > best[0]):
                best = (saving, (kernel, quotient, remainder))
        return None if best is None else best[1]


def _coverable(net: Network, name: str) -> bool:
    return 0 < net.node(name).table.num_inputs <= _MAX_COVER_INPUTS


def _install_cover(
    net: Network, name: str, cover: Cover, fanins: List[str]
) -> None:
    table = table_from_cover(cover, len(fanins))
    reduced, kept = table.minimize_support()
    net.replace_node(name, [fanins[i] for i in kept], reduced)


def factor_node(
    net: Network,
    name: str,
    min_saving: int = 2,
    *,
    cache: Optional[ScriptCache] = None,
) -> bool:
    """Factor one node as quotient * kernel + remainder if it saves
    literals.  Creates up to two new nodes; returns True when applied.

    ``cache`` is the run's :class:`ScriptCache`; a standalone call
    builds its own.
    """
    if not _coverable(net, name):
        return False
    if cache is None:
        cache = ScriptCache()
    node = net.node(name)
    fanins = list(node.fanins)
    best = cache.factoring(node.table, min_saving)
    if best is None:
        return False

    kernel, quotient, remainder = best
    divisor_name = net.fresh_name(f"{name}_d")
    divisor_table = table_from_cover(kernel, len(fanins))
    reduced, kept = divisor_table.minimize_support()
    net.add_node(divisor_name, [fanins[i] for i in kept], reduced)

    # Rebuild the node as quotient*divisor + remainder over the extended
    # fan-in list.
    new_fanins = fanins + [divisor_name]
    div_literal = (len(fanins), 1)
    new_cover: Cover = [q | {div_literal} for q in quotient]
    new_cover.extend(remainder)
    _install_cover(net, name, new_cover, new_fanins)
    return True


def extract_kernels(
    net: Network,
    min_uses: int = 2,
    max_rounds: int = 4,
    *,
    cache: Optional[ScriptCache] = None,
) -> int:
    """Extract kernels shared between node covers into new nodes.

    Each round scores every kernel by
    ``(uses - 1) * kernel_literals - kernel_cubes`` (an estimate of saved
    literals), extracts the best one network-wide, and divides it out of
    every cover it divides.  Returns the number of kernels extracted.

    ``cache`` is the run's :class:`ScriptCache`; a standalone call
    builds its own, which still serves the later rounds.
    """
    if cache is None:
        cache = ScriptCache()
    extracted = 0
    for _ in range(max_rounds):
        covers: Dict[str, Tuple[Cover, List[str]]] = {}
        candidates: Dict[Signature, List[str]] = {}
        for name in net.node_names():
            if not _coverable(net, name):
                continue
            node = net.node(name)
            cover = cache.cover(node.table)
            if len(cover) < 2:
                continue
            fanins = list(node.fanins)
            covers[name] = (cover, fanins)
            # Kernels are keyed by their *semantic* signature over global
            # signal names so kernels from different nodes can match.
            for signature in cache.signatures(node.table, fanins):
                candidates.setdefault(signature, []).append(name)

        best_signature = None
        best_score = 0
        for signature, users in candidates.items():
            distinct_users = sorted(set(users))
            if len(distinct_users) < min_uses:
                continue
            kernel_lits = sum(len(c) for c in signature)
            # Exact literal saving: divide the kernel out of each user's
            # cover and compare costs; the kernel node itself costs its
            # own literals once.
            saving = -kernel_lits
            for name in distinct_users:
                cover, fanins = covers[name]
                local_map = {sig: i for i, sig in enumerate(fanins)}
                if not all(
                    sig in local_map for cube in signature for sig, _ in cube
                ):
                    continue
                local_kernel: Cover = [
                    frozenset((local_map[sig], pol) for sig, pol in cube)
                    for cube in signature
                ]
                quotient, remainder = cover_divide(cover, local_kernel)
                if not quotient:
                    continue
                before = cover_literals(cover)
                after = (
                    cover_literals(quotient)
                    + len(quotient)
                    + cover_literals(remainder)
                )
                saving += before - after
            if saving > best_score:
                best_score = saving
                best_signature = signature
        if best_signature is None:
            return extracted

        # Materialise the kernel as a node over the union of its signals.
        signals = sorted({sig for cube in best_signature for sig, _ in cube})
        index_of = {sig: i for i, sig in enumerate(signals)}
        kernel_cover: Cover = [
            frozenset((index_of[sig], pol) for sig, pol in cube)
            for cube in best_signature
        ]
        kernel_table = table_from_cover(kernel_cover, len(signals))
        kernel_name = net.fresh_name("ker")
        net.add_node(kernel_name, signals, kernel_table)
        extracted += 1

        # Divide it out of every cover it (algebraically) divides.
        for name, (cover, fanins) in covers.items():
            if kernel_name == name:
                continue
            local_map = {sig: i for i, sig in enumerate(fanins)}
            if not all(sig in local_map for sig in signals):
                continue
            local_kernel: Cover = [
                frozenset((local_map[sig], pol) for sig, pol in cube)
                for cube in best_signature
            ]
            quotient, remainder = cover_divide(cover, local_kernel)
            if not quotient:
                continue
            new_fanins = fanins + [kernel_name]
            div_literal = (len(fanins), 1)
            new_cover: Cover = [q | {div_literal} for q in quotient]
            new_cover.extend(remainder)
            _install_cover(net, name, new_cover, new_fanins)
    return extracted


def algebraic_script(net: Network, rounds: int = 2) -> Dict[str, int]:
    """SIS-style algebraic preprocessing: extract + factor to fixpoint.

    Returns a small statistics dict.  The network is modified in place
    and remains functionally identical (callers can verify with
    :func:`repro.network.check_equivalence`).
    """
    stats = {"kernels_extracted": 0, "nodes_factored": 0}
    cache = ScriptCache()
    for _ in range(rounds):
        stats["kernels_extracted"] += extract_kernels(net, cache=cache)
        factored = 0
        for name in list(net.node_names()):
            if factor_node(net, name, cache=cache):
                factored += 1
        stats["nodes_factored"] += factored
        sweep(net)
        if not factored:
            break
    return stats
