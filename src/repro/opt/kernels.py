"""Kernel and co-kernel extraction (Brayton/McMullen algebraic model).

A *kernel* of a cover F is a cube-free quotient F/c for some cube c (the
*co-kernel*).  Kernels are the candidate multi-cube divisors of algebraic
factoring; shared kernels between nodes expose common sub-expressions.
This implements the classic recursive kernel enumeration over the
literal set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from .sop import Cover, Cube, Literal

__all__ = ["is_cube_free", "make_cube_free", "kernels", "KernelEntry"]


def _literal_count(cover: Cover) -> Dict[Literal, int]:
    counts: Dict[Literal, int] = {}
    for cube in cover:
        for lit in cube:
            counts[lit] = counts.get(lit, 0) + 1
    return counts


def common_cube(cover: Cover) -> Cube:
    """The largest cube dividing every cube of the cover."""
    if not cover:
        return frozenset()
    result: FrozenSet[Literal] = cover[0]
    for cube in cover[1:]:
        result = result & cube
    return result


def is_cube_free(cover: Cover) -> bool:
    """True iff no single literal divides every cube."""
    return len(cover) > 0 and not common_cube(cover)


def make_cube_free(cover: Cover) -> Tuple[Cover, Cube]:
    """Strip the common cube; returns (cube-free cover, stripped cube)."""
    cube = common_cube(cover)
    if not cube:
        return list(cover), frozenset()
    return [c - cube for c in cover], cube


class KernelEntry:
    """A kernel with one of its co-kernels."""

    __slots__ = ("kernel", "cokernel")

    def __init__(self, kernel: Cover, cokernel: Cube):
        self.kernel = sorted(kernel, key=lambda c: tuple(sorted(c)))
        self.cokernel = cokernel

    def key(self) -> Tuple:
        return tuple(tuple(sorted(c)) for c in self.kernel)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KernelEntry(kernel={self.kernel}, cokernel={set(self.cokernel)})"


def kernels(cover: Cover, include_trivial: bool = True) -> List[KernelEntry]:
    """All kernels of the cover (level-0 and higher).

    ``include_trivial``: also report the cover itself when cube-free (the
    trivial kernel with co-kernel 1).
    """
    seen: Dict[Tuple, KernelEntry] = {}
    literals = sorted(_literal_count(cover))

    def recurse(current: Cover, start: int, path_cube: Set[Literal]) -> None:
        counts = _literal_count(current)
        for pos in range(start, len(literals)):
            lit = literals[pos]
            if counts.get(lit, 0) < 2:
                continue
            sub = [c - {lit} for c in current if lit in c]
            sub_free, stripped = make_cube_free(sub)
            # Classic pruning: if the stripped cube contains a literal
            # ordered before `lit`, this kernel is found on that branch.
            if any(lit2 in stripped for lit2 in literals[:pos]):
                continue
            cokernel = frozenset(path_cube | {lit} | stripped)
            entry = KernelEntry(sub_free, cokernel)
            key = entry.key()
            if key not in seen and len(sub_free) >= 2:
                seen[key] = entry
            recurse(sub_free, pos + 1, set(cokernel))

    recurse(list(cover), 0, set())

    free, stripped = make_cube_free(list(cover))
    if include_trivial and len(free) >= 2:
        entry = KernelEntry(free, stripped)
        seen.setdefault(entry.key(), entry)
    return list(seen.values())
