"""Sum-of-products covers for algebraic optimisation.

The algebraic passes (kernel extraction, common-cube extraction) work on
cube-list covers, the representation SIS uses.  A cover is a list of
cubes; a cube is a frozenset of literals; a literal is ``(input_index,
polarity)``.  Covers here are produced from node truth tables via the
BDD ISOP, so they are irredundant to start with.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..bdd import BddManager
from ..bdd.isop import isop
from ..boolfunc import TruthTable
from ..boolfunc.truthtable import _mask0

__all__ = [
    "Literal",
    "Cube",
    "Cover",
    "cover_from_table",
    "table_from_cover",
    "cube_divide",
    "cover_divide",
    "cover_literals",
    "cube_to_str",
]

Literal = Tuple[int, int]  # (input index, polarity 0/1)
Cube = FrozenSet[Literal]
Cover = List[Cube]


def cover_from_table(table: TruthTable) -> Cover:
    """Irredundant SOP cover of a truth table (via the BDD ISOP)."""
    if table.num_inputs == 0:
        return [frozenset()] if table.mask else []
    manager = BddManager(table.num_inputs)
    f = manager.from_truth_table(table.mask, list(range(table.num_inputs)))
    cubes = isop(manager, f, f)
    return [
        frozenset((lv, value) for lv, value in cube.items())
        for cube in cubes
    ]


def table_from_cover(cover: Cover, num_inputs: int) -> TruthTable:
    """Evaluate a cover back into a truth table.

    Bit-parallel: each cube's mask is the AND of its literals' variable
    masks, and the cover's mask is the OR of its cubes.  Raises
    ``ValueError`` for a literal whose index is outside
    ``range(num_inputs)`` or whose polarity is not 0 or 1.
    """
    full = (1 << (1 << num_inputs)) - 1
    mask = 0
    for cube in cover:
        term = full
        for idx, pol in cube:
            if not 0 <= idx < num_inputs or pol not in (0, 1):
                raise ValueError(
                    f"literal {(idx, pol)!r} invalid for {num_inputs} inputs"
                )
            clear = _mask0(num_inputs, idx)
            term &= (full ^ clear) if pol else clear
        mask |= term
    return TruthTable(num_inputs, mask)


def cover_literals(cover: Cover) -> int:
    """Total literal count (the algebraic cost function)."""
    return sum(len(cube) for cube in cover)


def cube_divide(cube: Cube, divisor: Cube) -> Optional[Cube]:
    """Cube quotient: cube / divisor, or None if divisor isn't a subset."""
    if divisor <= cube:
        return cube - divisor
    return None


def cover_divide(cover: Cover, divisor: Cover) -> Tuple[Cover, Cover]:
    """Weak (algebraic) division: cover = quotient * divisor + remainder.

    Standard algorithm: the quotient is the intersection over divisor
    cubes d of { c / d : c in cover, d subset of c }; the remainder is
    whatever the product fails to cover.
    """
    if not divisor:
        return [], list(cover)
    quotient: Optional[Set[Cube]] = None
    for d in divisor:
        partial = {q for c in cover if (q := cube_divide(c, d)) is not None}
        quotient = partial if quotient is None else (quotient & partial)
        if not quotient:
            return [], list(cover)
    assert quotient is not None
    product = {q | d for q in quotient for d in divisor}
    remainder = [c for c in cover if c not in product]
    return sorted(quotient, key=_cube_key), remainder


def _cube_key(cube: Cube) -> Tuple:
    return tuple(sorted(cube))


def cube_to_str(cube: Cube, names: Optional[Sequence[str]] = None) -> str:
    """Readable cube, e.g. ``a b' c``."""
    if not cube:
        return "1"
    parts = []
    for idx, pol in sorted(cube):
        name = names[idx] if names else f"x{idx}"
        parts.append(name if pol else f"{name}'")
    return " ".join(parts)
