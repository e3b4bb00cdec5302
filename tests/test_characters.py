from fractions import Fraction

import pytest

from lppqs.characters import (
    LaurentPolynomial as LP,
    bounded_character_sum,
    box_partitions,
    character_jt,
    character_tab,
    complete_homogeneous,
    okada_product,
    odd_orthogonal_variables,
    ordinary_variables,
    product_of_variables,
    symplectic_variables,
)
from lppqs.partitions import Partition, enumerate_patterns

x = LP.variable(0, 1)
xinv = LP.variable(0, 1, -1)


def random_sparse(rng, nvars=3, terms=4, span=5):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in range(nvars))
        out[exps] = rng.randint(-9, 9)
    return LP(nvars, out)


def test_ring_identities():
    a = LP(2, {(1, -1): 3, (0, 2): -2})
    assert a + LP.zero(2) == a
    assert a * LP.one(2) == a
    assert a - a == LP.zero(2)
    assert a * 0 == LP.zero(2)
    assert 2 * a == a + a


def test_hand_expansion():
    lhs = (x + xinv) * (x + 1 + xinv)
    assert lhs == x**2 + x + 2 + xinv + xinv**2


def test_term_count_bound(rng):
    for _ in range(50):
        a = random_sparse(rng)
        b = random_sparse(rng)
        assert len((a * b).terms) <= len(a.terms) * len(b.terms)


def test_mul_commutative_associative(rng):
    for _ in range(200):
        a = random_sparse(rng)
        b = random_sparse(rng)
        c = random_sparse(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mismatched_variable_counts():
    with pytest.raises(ValueError):
        LP.one(2) + LP.one(3)
    with pytest.raises(ValueError):
        LP.one(2) * LP.one(1)


def test_complete_homogeneous_boundaries():
    assert complete_homogeneous(0, symplectic_variables(2), 2) == LP.one(2)
    assert complete_homogeneous(-2, symplectic_variables(2), 2) == LP.zero(2)
    assert complete_homogeneous(1, odd_orthogonal_variables(1), 1) == x + 1 + xinv
    h2 = complete_homogeneous(2, ordinary_variables(2), 2)
    x1, x2 = LP.variable(0, 2), LP.variable(1, 2)
    assert h2 == x1**2 + x1 * x2 + x2**2


def test_character_jt_examples():
    assert character_jt("schur", Partition([]), 3) == LP.one(3)
    assert character_jt("symplectic", Partition([1]), 1) == x + xinv
    assert character_jt("odd_orthogonal", Partition([1]), 1) == x + 1 + xinv


def test_character_jt_rejects_long_shapes():
    with pytest.raises(ValueError):
        character_jt("schur", Partition([1, 1]), 1)


def test_character_tab_examples():
    x1, x2 = LP.variable(0, 2), LP.variable(1, 2)
    assert character_tab("schur", Partition([1]), 2) == x1 + x2
    assert character_tab("symplectic", Partition([1]), 1) == x + xinv
    assert character_tab("schur", Partition([2]), 2) == x1**2 + x1 * x2 + x2**2


def _box(rows, cols):
    out = set()
    for parts in box_partitions(cols, rows):
        out.add(parts)
    return sorted(out, key=lambda p: p.parts)


@pytest.mark.parametrize("family", ["schur", "symplectic", "odd_orthogonal"])
def test_det_equals_tab_small(family):
    for n in (1, 2):
        for lam in _box(2, 2):
            if len(lam) > n:
                continue
            assert character_jt(family, lam, n) == character_tab(family, lam, n)
    # 4x4 determinants
    for lam in (Partition([1, 1, 1, 1]), Partition([2, 1, 1, 1])):
        assert character_jt(family, lam, 4) == character_tab(family, lam, 4)


def test_schur_symmetric_under_permutations():
    lam = Partition([2, 1])
    for n in (2, 3):
        s = character_jt("schur", lam, n)
        perms = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
        for perm in perms:
            assert s.permute_variables(perm) == s


@pytest.mark.parametrize("family", ["symplectic", "odd_orthogonal"])
def test_bc_symmetry_under_inversions(family):
    for n in (1, 2, 3):
        for lam in (Partition([1]), Partition([2, 1])):
            if len(lam) > n:
                continue
            ch = character_jt(family, lam, n)
            for i in range(n):
                assert ch.invert_variable(i) == ch


def test_bounded_character_sum_examples():
    assert bounded_character_sum("schur", 0, 2) == LP.one(2)
    assert bounded_character_sum("schur", 2, 1) == 1 + x + x**2
    assert bounded_character_sum("schur", 2, 1, even_rows_only=True) == 1 + x**2
    assert bounded_character_sum("symplectic", 1, 1) == 1 + x + xinv


def test_bounded_sums_equal_rectangular_characters():
    for n in (1, 2):
        for u in (0, 2, 4):
            v = u // 2
            rect = Partition([v] * n)
            assert bounded_character_sum("schur", u, n) == product_of_variables(
                n, v
            ) * character_jt("odd_orthogonal", rect, n)
            assert bounded_character_sum(
                "schur", u, n, even_rows_only=True
            ) == product_of_variables(n, v) * character_jt("symplectic", rect, n)


def test_okada_examples():
    lhs, rhs = okada_product(0, 2)
    assert lhs == rhs == LP.one(2)
    lhs, rhs = okada_product(2, 1)
    assert lhs == rhs == x**2 + x + 2 + xinv + xinv**2
    lhs, rhs = okada_product(1, 1)
    assert lhs == rhs == 1 + x + xinv


def test_okada_both_parities_small():
    for n in (1, 2):
        for u in range(0, 5):
            lhs, rhs = okada_product(u, n)
            assert lhs == rhs, (n, u)


def test_specialize_examples():
    assert (1 + x**2).specialize([Fraction(1, 2)]) == Fraction(5, 4)
    assert (x + xinv).specialize([1]) == 2
    s = character_jt("schur", Partition([2, 1]), 2)
    assert s.specialize([1, 1]) == len(
        list(enumerate_patterns("ordinary", 2, Partition([2, 1])))
    )


def test_specialize_rejects_zero_at_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        (x + xinv).specialize([0])
    assert (1 + x).specialize([0]) == 1


def test_canonical_text():
    p = 2 + 3 * x - xinv
    assert p.canonical_text() == "-1 * x1^-1 + 2 + 3 * x1^1"
    q = LP(2, {(1, 2): 1, (-1, 0): 4})
    assert q.canonical_text() == "4 * x1^-1 + 1 * x1^1 x2^2"
    assert LP.zero(1).canonical_text() == "0"


def test_box_partitions_colex_order():
    got = [p.parts for p in box_partitions(2, 2)]
    assert got == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    even = [p.parts for p in box_partitions(2, 2, even_rows_only=True)]
    assert even == [(), (2,), (2, 2)]


def test_seven_by_seven_determinant():
    # the column of ones determinant, s_(1^7) = x1 ... x7
    lam = Partition([1] * 7)
    s = character_jt("schur", lam, 7)
    assert s == LP.monomial((1,) * 7, 7)
