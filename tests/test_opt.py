"""Tests for the algebraic optimisation package (SOP covers, kernels,
division, factoring, network-level extraction)."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc import TruthTable
from repro.network import Network, check_equivalence
from repro.opt import (
    algebraic_script,
    common_cube,
    cover_divide,
    cover_from_table,
    cover_literals,
    cube_divide,
    cube_to_str,
    extract_kernels,
    factor_node,
    is_cube_free,
    kernels,
    make_cube_free,
    table_from_cover,
)

tables = st.builds(
    TruthTable,
    st.just(4),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)


@st.composite
def wide_tables(draw):
    n = draw(st.integers(min_value=0, max_value=13))
    return TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@st.composite
def arbitrary_covers(draw):
    """(cover, width): cubes may repeat, overlap, be empty or contradict."""
    n = draw(st.integers(min_value=0, max_value=13))
    literal = st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    cube = st.frozensets(literal, max_size=n) if n else st.just(frozenset())
    cover = draw(st.lists(cube, max_size=6))
    if cover and draw(st.booleans()):
        cover.append(draw(st.sampled_from(cover)))  # a duplicate cube
    return cover, n


def reference_table(cover, num_inputs):
    """Per-minterm cover evaluation, the definition table_from_cover meets."""
    mask = 0
    for minterm in range(1 << num_inputs):
        if any(
            all(((minterm >> idx) & 1) == pol for idx, pol in cube)
            for cube in cover
        ):
            mask |= 1 << minterm
    return mask


def C(*lits):
    """Cube literal helper: C((0,1),(2,0)) etc."""
    return frozenset(lits)


class TestCovers:
    @given(wide_tables())
    @settings(max_examples=50, deadline=None)
    def test_cover_round_trip(self, table):
        cover = cover_from_table(table)
        assert table_from_cover(cover, table.num_inputs).mask == table.mask

    @given(arbitrary_covers())
    @settings(max_examples=60, deadline=None)
    def test_table_from_cover_matches_reference(self, case):
        cover, n = case
        assert table_from_cover(cover, n).mask == reference_table(cover, n)

    @pytest.mark.parametrize(
        "cover, n, mask",
        [
            ([], 0, 0),
            ([], 3, 0),
            ([frozenset()], 0, 1),
            ([frozenset()], 3, 0xFF),
            ([C((0, 1)), C((0, 1))], 2, 0b1010),
            ([C((0, 1)), C((0, 1), (1, 1))], 2, 0b1010),
            ([C((0, 1), (0, 0))], 1, 0),
        ],
        ids=["empty0", "empty3", "tautology0", "tautology3", "duplicate",
             "overlap", "contradiction"],
    )
    def test_table_from_cover_edge_cases(self, cover, n, mask):
        assert table_from_cover(cover, n).mask == mask == reference_table(cover, n)

    @pytest.mark.parametrize(
        "literal", [(2, 1), (2, 0), (-1, 1), (0, 2), (1, -1)]
    )
    def test_table_from_cover_rejects_bad_literals(self, literal):
        with pytest.raises(ValueError):
            table_from_cover([C((0, 1), literal)], 2)

    def test_constant_covers(self):
        assert cover_from_table(TruthTable.constant(0, 1)) == [frozenset()]
        assert cover_from_table(TruthTable.constant(0, 0)) == []

    def test_cover_literals(self):
        cover = [C((0, 1), (1, 1)), C((2, 0))]
        assert cover_literals(cover) == 3

    def test_cube_to_str(self):
        assert cube_to_str(C((0, 1), (1, 0)), ["a", "b"]) == "a b'"
        assert cube_to_str(frozenset()) == "1"


class TestDivision:
    def test_cube_divide(self):
        assert cube_divide(C((0, 1), (1, 1)), C((0, 1))) == C((1, 1))
        assert cube_divide(C((0, 1)), C((1, 1))) is None

    def test_cover_divide_exact(self):
        # (ab + ac) / (b + c) = a, remainder empty.
        f = [C((0, 1), (1, 1)), C((0, 1), (2, 1))]
        d = [C((1, 1)), C((2, 1))]
        q, r = cover_divide(f, d)
        assert q == [C((0, 1))]
        assert r == []

    def test_cover_divide_remainder(self):
        # (ab + ac + d) / (b + c) = a, remainder d.
        f = [C((0, 1), (1, 1)), C((0, 1), (2, 1)), C((3, 1))]
        d = [C((1, 1)), C((2, 1))]
        q, r = cover_divide(f, d)
        assert q == [C((0, 1))]
        assert r == [C((3, 1))]

    def test_non_divisor(self):
        f = [C((0, 1), (1, 1))]
        d = [C((2, 1))]
        q, r = cover_divide(f, d)
        assert q == [] and r == f

    @given(tables, tables)
    @settings(max_examples=40, deadline=None)
    def test_division_identity(self, t_f, t_d):
        # f == q*d + r as functions, whenever q is non-empty.
        f = cover_from_table(t_f)
        d = cover_from_table(t_d)
        if not d or not f:
            return
        q, r = cover_divide(f, d)
        product = [qc | dc for qc in q for dc in d]
        rebuilt = table_from_cover(product + r, 4)
        assert rebuilt.mask == t_f.mask


class TestKernels:
    def test_common_cube(self):
        cover = [C((0, 1), (1, 1)), C((0, 1), (2, 1))]
        assert common_cube(cover) == C((0, 1))
        free, cube = make_cube_free(cover)
        assert cube == C((0, 1))
        assert is_cube_free(free)

    def test_textbook_kernels(self):
        # f = ab + ac + bd: kernels {b+c} (cokernel a), {a+d} (cokernel b),
        # and the cover itself (cube-free).
        t = TruthTable.from_function(
            4, lambda a, b, c, d: (a & b) | (a & c) | (b & d)
        )
        cover = cover_from_table(t)
        found = {
            tuple(sorted(tuple(sorted(c)) for c in k.kernel))
            for k in kernels(cover)
        }
        b_plus_c = tuple(sorted([((1, 1),), ((2, 1),)]))
        a_plus_d = tuple(sorted([((0, 1),), ((3, 1),)]))
        assert b_plus_c in found
        assert a_plus_d in found

    def test_kernels_are_cube_free(self):
        rng = random.Random(2)
        for _ in range(10):
            t = TruthTable(5, rng.getrandbits(32))
            cover = cover_from_table(t)
            for entry in kernels(cover):
                assert is_cube_free(entry.kernel)

    def test_single_cube_has_no_kernels(self):
        cover = [C((0, 1), (1, 1), (2, 1))]
        assert kernels(cover) == []


class TestNetworkPasses:
    def test_factor_node(self):
        t = TruthTable.from_function(
            5, lambda a, b, c, d, e: (a & b & c) | (a & b & d) | (a & b & e)
        )
        net = Network("f")
        for pi in "abcde":
            net.add_input(pi)
        net.add_node("f", list("abcde"), t)
        net.add_output("f")
        before = net.copy()
        assert factor_node(net, "f")
        assert check_equivalence(net, before) is None
        assert net.num_nodes == 2

    def test_factor_node_no_gain(self):
        t = TruthTable.from_function(2, lambda a, b: a ^ b)
        net = Network("x")
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", ["a", "b"], t)
        net.add_output("f")
        assert not factor_node(net, "f")

    def test_extract_shared_kernel(self):
        net = Network("shared")
        for pi in "abcd":
            net.add_input(pi)
        t1 = TruthTable.from_function(3, lambda a, b, c: (a & b) | (a & c))
        t2 = TruthTable.from_function(3, lambda d, b, c: (d & b) | (d & c))
        net.add_node("f", ["a", "b", "c"], t1)
        net.add_node("g", ["d", "b", "c"], t2)
        net.add_output("f")
        net.add_output("g")
        before = net.copy()
        assert extract_kernels(net) >= 1
        assert check_equivalence(net, before) is None
        # The shared (b + c) kernel should now be a single node feeding both.
        kernel_nodes = [
            n.name for n in net.nodes()
            if n.name not in ("f", "g")
        ]
        assert kernel_nodes

    def test_algebraic_script_preserves_function(self):
        rng = random.Random(4)
        net = Network("rand")
        sigs = [net.add_input(f"i{j}") for j in range(6)]
        for n in range(8):
            fanins = rng.sample(sigs, 4)
            net.add_node(f"n{n}", fanins, TruthTable(4, rng.getrandbits(16)))
            sigs.append(f"n{n}")
        for j in (9, 11, 13):
            net.add_output(sigs[j], f"o{j}")
        before = net.copy()
        algebraic_script(net)
        assert check_equivalence(net, before) is None


class TestStructuralFlow:
    def test_map_structural(self):
        from repro.circuits import build
        from repro.mapping import map_structural
        from repro.network import is_k_feasible

        result = map_structural(build("count"), k=5)
        assert is_k_feasible(result.network, 5)
        assert result.lut_count > 0

    def test_map_structural_no_preopt(self):
        from repro.circuits import build
        from repro.mapping import map_structural

        result = map_structural(build("z4ml"), k=5, preoptimize=False)
        assert result.flow == "structural"


def _sop(i):
    from repro.circuits import windowed_network

    return windowed_network(f"sop{i}", 16, 8, window=8, seed=i)


class TestScriptGoldens:
    """Outputs of the algebraic script on the sop-structural circuits,
    recorded before the script gained its per-run cache."""

    @pytest.mark.parametrize(
        "i, stats, blif_sha256",
        [
            (
                1,
                {"kernels_extracted": 8, "nodes_factored": 24},
                "0162fc07678d2076b345a6a3a6f7f56a17e5ea4364b4fdd39a6095c850ed9caf",
            ),
            (
                2,
                {"kernels_extracted": 8, "nodes_factored": 23},
                "b6b5bcab4807d9fa93e4fe5d3b0c1a55678a7aa28f77a3932a6b5129ec2eed86",
            ),
        ],
    )
    def test_script_output_pinned(self, i, stats, blif_sha256):
        from repro.network.blif import to_blif

        net = _sop(i)
        assert algebraic_script(net) == stats
        digest = hashlib.sha256(to_blif(net).encode()).hexdigest()
        assert digest == blif_sha256

    @pytest.mark.parametrize("i, luts, depth", [(1, 227, 10), (2, 238, 11)])
    def test_map_structural_pinned(self, i, luts, depth):
        # LUTs and depth only: the mapped BLIF still depends on the hash
        # seed through the decomposition's set iteration order.
        from repro.mapping import map_structural

        result = map_structural(_sop(i), k=5)
        assert (result.lut_count, result.depth) == (luts, depth)

    def test_cold_run_equals_warm_run(self):
        from repro.network.blif import to_blif

        source = _sop(1)
        first, second = source.copy(), source.copy()
        algebraic_script(first)
        algebraic_script(second)
        assert to_blif(first) == to_blif(second)
