from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from chargepage import sectors
from chargepage.models import ChargeModel, GroupKind, catalog, catalog_names
from chargepage.sectors import (
    MAX_COUNT_BYTES, EmptySectorError, block_table, block_tables, check_count_bytes,
    realizable_charges, sector_dims, weight_counts,
)

from conftest import (
    REDUCIBLE_PANEL, brute_force_u1_blocks, brute_force_u1_counts,
    convolution_weight_counts, ladder_su2_dims, random_small_models, su2_weight_space_b,
    total_dimension, triangle_blocks,
)


def test_weight_counts_u1_qubit_four_bodies():
    # brute force over the 2^4 strings gives the binomial pattern
    model = catalog("u1-qubit")
    expected = {-4: 1, -2: 4, 0: 6, 2: 4, 4: 1}
    assert weight_counts(model, 4) == expected
    assert brute_force_u1_counts(model, 4) == expected


def test_weight_counts_zero_bodies_is_empty_product():
    for name in catalog_names():
        assert weight_counts(catalog(name), 0) == {0: 1}


def test_negative_body_counts_are_refused():
    with pytest.raises(ValueError, match="n = -1 must be >= 0"):
        weight_counts(catalog("u1-qubit"), -1)


def test_weight_counts_two_species_bosons_two_bodies():
    model = catalog("u1-2bosons")
    expected = brute_force_u1_counts(model, 2)
    assert expected == {0: 1, 2: 4, 4: 4}
    assert weight_counts(model, 2) == expected


def test_weight_counts_sum_is_k_to_n():
    for name in catalog_names():
        model = catalog(name)
        for n in range(7):
            assert sum(weight_counts(model, n).values()) == model.local_dim**n


def test_sector_dims_su2_qubit_examples():
    model = catalog("su2-qubit")
    assert sector_dims(model, 4).dims == {0: 2, 2: 3, 4: 1}
    assert 2 * 1 + 3 * 3 + 1 * 5 == 16
    assert sector_dims(model, 1).dims == {1: 1}


def test_sector_dims_u1_qubit_binomial_oracle():
    model = catalog("u1-qubit")
    for n in range(1, 15):
        table = sector_dims(model, n)
        for m2, dim in table.dims.items():
            assert dim == comb(n, (n + m2) // 2)
        assert table.dims[0 if n % 2 == 0 else 1] == comb(n, n // 2)


def test_sector_dims_su2_qubit_binomial_difference_oracle():
    model = catalog("su2-qubit")
    for n in range(1, 15):
        table = sector_dims(model, n)
        for j2, dim in table.dims.items():
            k = (n - j2) // 2
            assert dim == comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


def test_sector_dims_match_brute_force_enumeration():
    for name in ("u1-qubit", "u1-qutrit", "u1-2bosons"):
        model = catalog(name)
        for n in range(1, 9):
            assert sector_dims(model, n).dims == brute_force_u1_counts(model, n)


def test_sector_dims_match_ladder_recursion():
    for name in ("su2-qubit", "su2-qutrit", "su2-trimer"):
        model = catalog(name)
        for n in range(1, 7):
            assert sector_dims(model, n).dims == ladder_su2_dims(model, n)


def test_su2_completeness_identity():
    for name in catalog_names():  # the U(1) models recombine without the 2j + 1
        model = catalog(name)
        for n in range(1, 15):
            assert total_dimension(sector_dims(model, n)) == model.local_dim**n


def test_block_table_u1_qubit_example():
    table = block_table(catalog("u1-qubit"), 4, 2, 0)
    assert table.blocks == ((-2, 1, 1), (0, 2, 2), (2, 1, 1))
    assert table.sector_dimension == 6
    assert table.blocks == tuple(brute_force_u1_blocks(catalog("u1-qubit"), 4, 2, 0))


def test_block_table_su2_qubit_example():
    table = block_table(catalog("su2-qubit"), 4, 2, 0)
    assert table.blocks == ((0, 1, 1), (2, 1, 1))
    assert table.sector_dimension == 2


def test_block_table_stretched_charge_single_block():
    table = block_table(catalog("u1-qubit"), 6, 2, 6)
    assert table.blocks == ((2, 1, 1),)


def test_block_table_matches_u1_brute_force():
    for name in ("u1-qutrit", "u1-2bosons"):
        model = catalog(name)
        n, n_a = 6, 2
        for q2 in realizable_charges(model, n):
            assert (list(block_table(model, n, n_a, q2).blocks)
                    == brute_force_u1_blocks(model, n, n_a, q2))


def test_block_normalization_catalog():
    # acceptance runs N <= 14; keep the unit-level sweep lighter
    for name in catalog_names():
        model = catalog(name)
        for n in range(2, 11):
            full = sector_dims(model, n).dims
            for n_a in range(1, n):
                for q2, dim in full.items():
                    table = block_table(model, n, n_a, q2)
                    assert sum(d * b for _, d, b in table.blocks) == dim
                    assert all(d >= 1 and b >= 1 for _, d, b in table.blocks)


def test_su2_blocks_match_weight_space_brute_force():
    for name in ("su2-qubit", "su2-trimer"):
        model = catalog(name)
        for n, n_a in ((4, 2), (5, 2), (6, 3)):
            for q2 in realizable_charges(model, n):
                table = block_table(model, n, n_a, q2)
                for qa2, _, b in table.blocks:
                    assert b == su2_weight_space_b(model, n - n_a, q2, qa2)


def test_unrealizable_charge_raises():
    with pytest.raises(EmptySectorError):
        block_table(catalog("u1-qubit"), 4, 2, 1)  # odd doubled charge
    with pytest.raises(EmptySectorError):
        block_table(catalog("u1-qubit"), 4, 2, 12)  # beyond reach
    with pytest.raises(ValueError):
        block_table(catalog("u1-qubit"), 4, 0, 0)  # trivial cut



def test_block_tables_match_per_cut_block_table():
    for name in catalog_names():
        model = catalog(name)
        for n in (2, 5, 9, 16):
            full = sector_dims(model, n)
            cuts = list(range(1, n))
            for q2 in full.dims:
                tables = list(block_tables(full, q2, cuts + cuts[::2]))
                assert sorted(t.n_a for t in tables) == cuts  # each cut once
                for table in tables:
                    assert table == block_table(model, n, table.n_a, q2)


def test_block_tables_share_each_mirror_pair(monkeypatch):
    from chargepage import sectors

    calls = []
    original = sectors._power_coefficients

    def counting(a, n):
        calls.append(n)
        return original(a, n)

    full = sector_dims(catalog("su2-trimer"), 12)
    monkeypatch.setattr(sectors, "_power_coefficients", counting)
    order = [t.n_a for t in block_tables(full, 6, [9, 3, 6, 1, 2, 10])]
    assert order == [1, 2, 10, 3, 9, 6]  # ascending by the smaller cut of each pair
    assert calls == [1, 11, 2, 10, 3, 9, 6]  # W(6) serves both sides of n_a = 6


def test_block_tables_reject_bad_cuts_and_charges():
    full = sector_dims(catalog("u1-qubit"), 4)
    with pytest.raises(ValueError):
        list(block_tables(full, 0, [1, 4]))
    with pytest.raises(EmptySectorError):
        list(block_tables(full, 1, [2]))

@settings(max_examples=40, deadline=None)
@given(model=random_small_models(), n=st.integers(2, 6),
       cut=st.integers(1, 5))
def test_block_normalization_random_models(model, n, cut):
    n_a = min(cut, n - 1)
    full = sector_dims(model, n).dims
    for q2, dim in full.items():
        table = block_table(model, n, n_a, q2)
        assert table.sector_dimension == dim


LATTICE_EXAMPLES = (
    ChargeModel(GroupKind.U1, {-2: 1, 2: 1}),
    ChargeModel(GroupKind.U1, {0: 1, 3: 2}),
    ChargeModel(GroupKind.SU2, {0: 2}),  # a single weight: no lattice step
    ChargeModel(GroupKind.SU2, {0: 1, 1: 1}),  # integer and half-integer spins: step 1
    ChargeModel(GroupKind.U1, {0: 2, 2: 1, 6: 1}),  # a zero coefficient inside the lattice
)

# the mirrored recurrence and the full one, each with n*top + 1 even and odd
MIRROR_EXAMPLES = (
    ChargeModel(GroupKind.U1, {-5: 1, -3: 1, 3: 1, 5: 1}),  # top 5, empty slots inside
    ChargeModel(GroupKind.U1, {-1: 2, 1: 2}),  # symmetric with a_0 = 2
    ChargeModel(GroupKind.U1, {-1: 1, 1: 2}),  # symmetric support only: full recurrence
    ChargeModel(GroupKind.SU2, {1: 1, 3: 2}),  # top 3
)


@settings(max_examples=60, deadline=None)
@given(model=random_small_models(), n=st.integers(0, 12))
@example(model=LATTICE_EXAMPLES[0], n=9)
@example(model=LATTICE_EXAMPLES[1], n=8)
@example(model=LATTICE_EXAMPLES[2], n=7)
@example(model=MIRROR_EXAMPLES[0], n=3)
@example(model=MIRROR_EXAMPLES[0], n=4)
@example(model=MIRROR_EXAMPLES[1], n=4)
@example(model=MIRROR_EXAMPLES[1], n=5)
@example(model=MIRROR_EXAMPLES[2], n=5)
@example(model=MIRROR_EXAMPLES[2], n=6)
@example(model=MIRROR_EXAMPLES[3], n=3)
@example(model=MIRROR_EXAMPLES[3], n=4)
def test_weight_counts_match_naive_convolution(model, n):
    counts = weight_counts(model, n)
    assert counts == convolution_weight_counts(model, n)
    assert list(counts) == sorted(counts)


@settings(max_examples=40, deadline=None)
@given(model=random_small_models(), n=st.integers(2, 8))
@example(model=LATTICE_EXAMPLES[0], n=6)
@example(model=LATTICE_EXAMPLES[1], n=5)
@example(model=LATTICE_EXAMPLES[2], n=4)
@example(model=LATTICE_EXAMPLES[3], n=5)
@example(model=LATTICE_EXAMPLES[4], n=4)
def test_blocks_match_triangle_double_loop(model, n):
    for n_a in range(1, n):
        for q2 in realizable_charges(model, n):
            assert (list(block_table(model, n, n_a, q2).blocks)
                    == triangle_blocks(model, n, n_a, q2))


def test_sector_dims_large_n_closed_forms():
    n = 2000
    assert sector_dims(catalog("u1-qubit"), n).dims == {
        2 * k - n: comb(n, k) for k in range(n + 1)}
    n = 1000
    expected = {}
    for j2 in range(0, n + 1, 2):
        k = (n - j2) // 2  # C(n, n/2 - j) - C(n, n/2 - j - 1)
        expected[j2] = comb(n, k) - (comb(n, k - 1) if k else 0)
    assert sector_dims(catalog("su2-qubit"), n).dims == expected
    # weights {0: 1, 2: 2} give (1 + 2x)^n; the trimer's {-3: 1, -1: 3, 1: 3, 3: 1} give (1 + x)^(3n)
    assert sector_dims(catalog("u1-2bosons"), n).dims == {
        2 * k: comb(n, k) * 2**k for k in range(n + 1)}
    assert weight_counts(catalog("su2-trimer"), n) == {
        2 * k - 3 * n: comb(3 * n, k) for k in range(3 * n + 1)}


def test_serialization_decimal_strings():
    # entries exceed 64-bit range and must survive a text round trip
    model = catalog("su2-trimer")
    table = sector_dims(model, 30)
    assert total_dimension(table) == 8**30
    biggest = max(table.dims.values())
    assert biggest > 2**63
    assert int(str(biggest)) == biggest


@settings(max_examples=60, deadline=None)
@given(q=st.lists(st.integers(1, 3), min_size=2, max_size=4), r=st.integers(1, 3),
       n=st.integers(0, 8))
@example(q=[1, 2, 1], r=2, n=5)  # Q itself a square: P = (1 + x)^4
@example(q=[2, 1], r=3, n=4)  # q_0 = 2: P = (2 + x)^3
def test_weight_counts_of_a_power_of_a_root_match_brute_force(q, r, n):
    # multiplicities P = Q^r on the doubled charges 2k - 3
    p = [1]
    for _ in range(r):
        p = [sum(p[i] * q[j - i] for i in range(len(p)) if 0 <= j - i < len(q))
             for j in range(len(p) + len(q) - 1)]
    model = ChargeModel(GroupKind.U1, {2 * k - 3: x for k, x in enumerate(p)})
    lattice = sector_dims(model, 1).lattice
    assert lattice.power % r == 0  # Q or a root of Q
    assert sectors._least_root(lattice.root) == (lattice.root, 1)  # the least root
    assert weight_counts(model, n) == convolution_weight_counts(model, n)


def test_only_su2_trimer_has_a_proper_root():
    for model in [catalog(name) for name in catalog_names()] + list(REDUCIBLE_PANEL):
        lattice = sector_dims(model, 1).lattice
        if model.name == "su2-trimer":  # P = (1 + x)^3
            assert (lattice.root, lattice.power) == ({0: 1, 1: 1}, 3)
        else:
            assert lattice.power == 1 and sum(lattice.root.values()) == model.local_dim


def test_root_search_skips_an_a0_too_big_for_a_float():
    # a_0 = 2^1030 (1031 bits) under a 20th root: past the float range, not an OverflowError
    model = ChargeModel(GroupKind.U1, {2 * k: 2**1030 if k == 0 else 1 for k in range(21)})
    assert sector_dims(model, 1).lattice.power == 1
    assert weight_counts(model, 3) == convolution_weight_counts(model, 3)


# the bound admits su2-trimer past N = 3 10^4, the page curves the exact route aims at
@pytest.mark.parametrize("name, largest", [("su2-trimer", 43_690), ("u1-qubit", 131_071)])
def test_weight_count_bound_at_its_edge(name, largest):
    # the predicate alone on both sides of the edge: no convolution runs
    lattice = sector_dims(catalog(name), 1).lattice
    check_count_bytes(lattice, largest)
    with pytest.raises(ValueError, match=f"n = {largest + 1}: its weight counts need about "
                                         f".* bytes, over the {MAX_COUNT_BYTES}-byte bound"):
        check_count_bytes(lattice, largest + 1)


def test_an_n_past_the_weight_count_bound_is_refused_before_any_convolution(monkeypatch):
    monkeypatch.setattr(sectors, "_power_coefficients",
                        lambda *args: pytest.fail("a convolution ran"))
    for refused in (lambda: sector_dims(catalog("su2-trimer"), 43_691),
                    lambda: weight_counts(catalog("u1-qubit"), 131_072)):
        with pytest.raises(ValueError, match="bytes, over the"):
            refused()
