import collections
import itertools
from fractions import Fraction

import pytest

import hashlib

from conftest import exponent_dict
from lppqs.characters import (
    LaurentPolynomial as LP,
    _h_table,
    _kronecker_mul,
    bounded_character_sum,
    box_partitions,
    character_jt,
    character_tab,
    okada_product,
    odd_orthogonal_variables,
    ordinary_variables,
    pack_exponents,
    product_of_variables,
    symplectic_variables,
    unpack_exponents,
)
from lppqs.cli import INSTANCE_SUITES
from lppqs.lpp import Geometry, generating_series
from lppqs.partitions import (
    Partition,
    SpGTPattern,
    _chains_to,
    _dual_subpartitions,
    enumerate_patterns,
    gt_type,
)

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
    assert lhs == x * x + x + 2 + xinv + xinv * xinv


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
    h = _h_table(symplectic_variables(2), 2, 0)
    assert h(0) == LP.one(2)
    assert h(-2) == LP.zero(2)
    with pytest.raises(IndexError):
        h(1)
    assert _h_table(odd_orthogonal_variables(1), 1, 1)(1) == x + 1 + xinv
    h2 = _h_table(ordinary_variables(2), 2, 2)(2)
    x1, x2 = LP.variable(0, 2), LP.variable(1, 2)
    assert h2 == x1 * x1 + x1 * x2 + x2 * x2


def test_character_jt_examples():
    assert character_jt("schur", Partition([]), 3) == LP.one(3)
    assert character_jt("symplectic", Partition([1]), 1) == x + xinv
    assert character_jt("odd_orthogonal", Partition([1]), 1) == x + 1 + xinv


def test_character_jt_rejects_long_shapes():
    with pytest.raises(ValueError):
        character_jt("schur", Partition([1, 1]), 1)


@pytest.mark.parametrize("family", ["schur", "symplectic", "odd_orthogonal"])
def test_character_tab_rejects_long_shapes(family):
    for n in (0, 1, 2):
        for fn in (character_tab, character_jt):
            with pytest.raises(ValueError):
                fn(family, Partition([1] * (n + 1)), n)


def test_character_tab_examples():
    x1, x2 = LP.variable(0, 2), LP.variable(1, 2)
    assert character_tab("schur", Partition([1]), 2) == x1 + x2
    assert character_tab("symplectic", Partition([1]), 1) == x + xinv
    assert character_tab("schur", Partition([2]), 2) == x1 * x1 + x1 * x2 + x2 * x2


# --- the walk against the enumerate-then-sum oracle ---------------------------
# The oracle lists every pattern (or, for odd orthogonal, every symplectic
# chain under a vertical strip) of the shape and adds one monomial each, the
# route the memoized walk replaced.


def odd_orthogonal_weights(lam, n):
    """One exponent vector per chain empty < l(1) < ... < l(2n) = nu with
    lam/nu a vertical strip: x_k weighs |l(2k-1)/l(2k-2)| - |l(2k)/l(2k-1)|,
    and the cells of the final vertical strip weigh 1."""
    lengths = [SpGTPattern.row_length(i) for i in range(1, 2 * n + 1)]
    for nu in _dual_subpartitions(lam):
        for chain in _chains_to(nu, lengths):
            sizes = [mu.size() for mu in chain]
            yield tuple(
                (sizes[2 * k - 1] - sizes[2 * k - 2]) - (sizes[2 * k] - sizes[2 * k - 1])
                for k in range(1, n + 1)
            )


def enumerated_character(family, lam, n):
    if family == "schur":
        weights = (gt_type(z) for z in enumerate_patterns("ordinary", n, lam))
    elif family == "symplectic":
        weights = (
            tuple(ty[2 * i] - ty[2 * i + 1] for i in range(n))
            for ty in map(gt_type, enumerate_patterns("symplectic", 2 * n, lam))
        )
    else:
        weights = odd_orthogonal_weights(lam, n)
    return LP(n, collections.Counter(weights))


def assert_bound_covers_exponents(p):
    assert all(
        abs(e) <= p.exponent_bound for key in p.terms for e in unpack_exponents(key, p.nvars)
    )


FAMILIES = ["schur", "symplectic", "odd_orthogonal"]


@pytest.mark.parametrize("family", FAMILIES)
def test_character_tab_matches_enumerated_patterns(family):
    # n = 0 has the empty shape alone, whose character is 1
    cases = [(n, lam) for n in (0, 1, 2, 3) for u in range(5) for lam in box_partitions(u, n)]
    cases += [(4, Partition([1, 1, 1, 1])), (4, Partition([2, 1, 1, 1]))]
    for n, lam in cases:
        tab = character_tab(family, lam, n)
        assert tab.canonical_text() == enumerated_character(family, lam, n).canonical_text(), (
            n, lam)
        assert_bound_covers_exponents(tab)


@pytest.mark.parametrize("family", FAMILIES)
def test_bounded_character_sum_matches_determinants(family):
    for n in (1, 2, 3):
        for u in range(5):
            for even_rows in (False, True):
                got = bounded_character_sum(family, u, n, even_rows)
                want = LP.zero(n)
                for lam in box_partitions(u, n, even_rows):
                    want = want + character_jt(family, lam, n)
                assert got.canonical_text() == want.canonical_text(), (n, u, even_rows)
                assert_bound_covers_exponents(got)


def test_characters_reject_unknown_families():
    for fn in (character_tab, character_jt):
        with pytest.raises(ValueError):
            fn("orthogonal", Partition([1]), 2)
    with pytest.raises(ValueError):
        bounded_character_sum("orthogonal", 2, 2)


def _box(rows, cols):
    out = set()
    for parts in box_partitions(cols, rows):
        out.add(parts)
    return sorted(out, key=lambda p: p.parts)


@pytest.mark.parametrize("family", ["schur", "symplectic", "odd_orthogonal"])
def test_det_equals_tab_small(family):
    # compared as text, which decodes every exponent vector
    shapes = [(n, lam) for n in (0, 1, 2, 3) for lam in _box(3, 2) if len(lam) <= n]
    # 4x4 determinants
    shapes += [(4, Partition([1, 1, 1, 1])), (4, Partition([2, 1, 1, 1]))]
    if family != "schur":
        # the rectangles (v^n) of okada_product and the Stembridge instances
        shapes += [(n, Partition([v] * n)) for n in (1, 2, 3) for v in (1, 2, 3)]
        shapes += [(4, Partition([v] * 4)) for v in (1, 2)]
    for n, lam in shapes:
        jt = character_jt(family, lam, n).canonical_text()
        assert jt == character_tab(family, lam, n).canonical_text(), (n, lam)


def test_symplectic_box_sum_text_is_pinned():
    # the md5 of this text as the row-by-row walk printed it, before the
    # walk climbed one level per variable
    text = bounded_character_sum("symplectic", 6, 4).canonical_text()
    assert hashlib.md5(text.encode()).hexdigest() == "d76cbb9ff766a1dd0516ffa304f3ae31"


def test_schur_symmetric_under_permutations():
    lam = Partition([2, 1])
    for n in (2, 3):
        s = character_jt("schur", lam, n)
        perms = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
        terms = exponent_dict(s)
        for perm in perms:
            # x_{k+1} -> x_{perm[k]+1} moves exponent k to place perm[k]
            moved = {tuple(e[perm.index(k)] for k in range(n)): c for e, c in terms.items()}
            assert moved == terms


@pytest.mark.parametrize("family", ["symplectic", "odd_orthogonal"])
def test_bc_symmetry_under_inversions(family):
    for n in (1, 2, 3):
        for lam in (Partition([1]), Partition([2, 1])):
            if len(lam) > n:
                continue
            terms = exponent_dict(character_jt(family, lam, n))
            for i in range(n):
                flipped = {e[:i] + (-e[i],) + e[i + 1:]: c for e, c in terms.items()}
                assert flipped == terms


def test_bounded_character_sum_examples():
    assert bounded_character_sum("schur", 0, 2) == LP.one(2)
    assert bounded_character_sum("schur", 2, 1) == 1 + x + x * x
    assert bounded_character_sum("schur", 2, 1, even_rows_only=True) == 1 + x * x
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
    assert lhs == rhs == x * x + x + 2 + xinv + xinv * xinv
    lhs, rhs = okada_product(1, 1)
    assert lhs == rhs == 1 + x + xinv


def test_okada_both_parities_small():
    for n in (1, 2):
        for u in range(0, 5):
            lhs, rhs = okada_product(u, n)
            assert lhs == rhs, (n, u)


def test_specialize_examples():
    assert (1 + x * x).specialize([Fraction(1, 2)]) == Fraction(5, 4)
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
    # every weakly decreasing n-tuple of parts <= u, sorted by reversed tuple
    for u in range(7):
        for n in range(5):
            for even_rows in (False, True):
                step = 2 if even_rows else 1
                tuples = [
                    t for t in itertools.product(range(0, u + 1, step), repeat=n)
                    if all(a >= b for a, b in zip(t, t[1:]))
                ]
                want = [Partition(t) for t in sorted(tuples, key=lambda t: t[::-1])]
                assert list(box_partitions(u, n, even_rows)) == want, (u, n, even_rows)


def test_seven_by_seven_determinant():
    # the column of ones determinant, s_(1^7) = x1 ... x7
    lam = Partition([1] * 7)
    s = character_jt("schur", lam, 7)
    assert s == LP.monomial((1,) * 7, 7)


# --- the packed kernel against a tuple-keyed reference -----------------------
# The reference keys terms by exponent tuples and adds them with zip, the
# representation the packed int keys replaced; it is kept here as the oracle.


def ref_random(rng, nvars, terms, exponent):
    out = {}
    for _ in range(terms):
        exps = tuple(exponent() for _ in range(nvars))
        out[exps] = out.get(exps, 0) + rng.choice([-3, -2, -1, 1, 2, 5])
    return {e: c for e, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_text(d):
    pieces = []
    for exps in sorted(d):
        factors = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        pieces.append(f"{d[exps]} * {factors}" if factors else str(d[exps]))
    return " + ".join(pieces) or "0"


def ref_specialize(d, values):
    total = Fraction(0)
    for exps, c in d.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def assert_matches(p, d):
    assert p.canonical_text() == ref_text(d)
    assert len(p.terms) == len(d)
    assert sorted(p.terms.values()) == sorted(d.values())


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_ring_operations_match_tuple_reference(rng, nvars):
    far = 2**30 - 1  # two such exponents still add inside the packed range
    exponent_kinds = [
        lambda: rng.randint(-3, 3),
        lambda: rng.choice([-far, -(2**20), -1, 0, 1, 2**20, far]),
    ]
    for trial in range(80):
        exponent = exponent_kinds[trial % 2]
        a = ref_random(rng, nvars, rng.randint(0, 6), exponent)
        b = ref_random(rng, nvars, rng.randint(0, 6), exponent)
        pa, pb = LP(nvars, a), LP(nvars, b)
        assert_matches(pa, a)
        assert_matches(pa * pb, ref_mul(a, b))
        assert_matches(pa + pb, ref_add(a, b))
        assert_matches(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
        assert_matches(-pa, {e: -c for e, c in a.items()})
        assert pa * pb == LP(nvars, ref_mul(a, b))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_specialize_matches_tuple_reference(rng, nvars):
    for _ in range(60):
        a = ref_random(rng, nvars, rng.randint(0, 8), lambda: rng.randint(-4, 4))
        b = ref_random(rng, nvars, rng.randint(0, 4), lambda: rng.randint(-2, 2))
        values = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(nvars)]
        assert LP(nvars, a).specialize(values) == ref_specialize(a, values)
        product = LP(nvars, a) * LP(nvars, b)
        assert product.specialize(values) == ref_specialize(ref_mul(a, b), values)
    # a zero value where every exponent of that variable is non-negative
    d = {(2,) + (0,) * (nvars - 1): 3, (0,) + (-1,) * (nvars - 1): 4}
    values = [0] + [Fraction(2, 3)] * (nvars - 1)
    assert LP(nvars, d).specialize(values) == ref_specialize(d, values)


def test_packed_keys_sort_like_exponent_vectors():
    vecs = list(itertools.product([-(2**31) + 1, -2, 0, 1, 2**31 - 1], repeat=3))
    keys = {pack_exponents(v): v for v in vecs}
    assert [keys[k] for k in sorted(keys)] == sorted(vecs)
    assert all(unpack_exponents(k, 3) == v for k, v in keys.items())


def test_exponents_outside_the_packed_range_raise():
    top = 2**31 - 1
    edge = LP(2, {(top, -top): 1})
    assert edge.canonical_text() == f"1 * x1^{top} x2^{-top}"
    for exps in ((2**31, 0), (0, -(2**31)), (1, 2**40)):
        with pytest.raises(OverflowError):
            LP(2, {exps: 1})
    # x2^(2^31) would carry into the x1 digit: the product raises instead
    with pytest.raises(OverflowError):
        edge * LP.variable(0, 2)
    with pytest.raises(OverflowError):
        LP.variable(1, 2, 2**30) * LP.variable(1, 2, 2**30)
    # the bound survives addition and negation
    shifted = -(edge + LP.one(2))
    assert shifted.exponent_bound == top
    with pytest.raises(OverflowError):
        shifted * shifted
    assert (LP.variable(0, 1, 2**30 - 1) * LP.variable(0, 1, 2**30)).canonical_text() == (
        f"1 * x1^{2**31 - 1}"
    )


# --- Kronecker substitution against the packed product ------------------------


def random_nonnegative(rng, nvars, terms, exponent, coefficient):
    return LP(nvars, {tuple(exponent() for _ in range(nvars)): coefficient()
                      for _ in range(terms)})


def assert_same_product(a, b):
    got, want = _kronecker_mul(a, b), a * b
    assert got.canonical_text() == want.canonical_text()
    assert got.exponent_bound == a.exponent_bound + b.exponent_bound == want.exponent_bound


@pytest.mark.parametrize("nvars", [0, 1, 2, 3, 4])
def test_kronecker_mul_matches_mul(rng, nvars):
    exponent_kinds = [lambda: rng.randint(-3, 3), lambda: rng.randint(2, 6)]
    coefficient_kinds = [lambda: rng.randint(0, 9), lambda: rng.randint(0, 10**30)]
    for trial in range(60):
        exponent = exponent_kinds[trial % 2]
        coefficient = coefficient_kinds[trial // 2 % 2]
        a = random_nonnegative(rng, nvars, rng.randint(0, 8), exponent, coefficient)
        b = random_nonnegative(rng, nvars, rng.randint(0, 8), exponent, coefficient)
        assert_same_product(a, b)
        assert_same_product(a, LP.zero(nvars))
        assert_same_product(LP.zero(nvars), b)
        assert_same_product(a, LP.constant(7, nvars))


def test_kronecker_mul_matches_mul_on_the_dense_products():
    # okada_product's right side at every (u, n) <= (6, 3)
    for n in (1, 2, 3):
        for u in range(7):
            assert_same_product(character_tab("symplectic", Partition([u // 2] * n), n),
                                character_tab("odd_orthogonal", Partition([(u + 1) // 2] * n), n))
    # the theorem suite's pr * pl at its default sizes
    for n, u in INSTANCE_SUITES["theorem"][1]:
        assert_same_product(generating_series(Geometry("p2pr", n), u),
                            generating_series(Geometry("p2l", n), u // 2))


def test_kronecker_mul_rejects_what_it_cannot_pack():
    negative = LP(1, {(1,): 2, (0,): -1})
    for a, b in ((negative, x), (x, negative)):
        with pytest.raises(ValueError):
            _kronecker_mul(a, b)
    with pytest.raises(ValueError):
        _kronecker_mul(LP.one(2), LP.one(1))
    # the bound of the product guards the packed range exactly as * does
    top = 2**31 - 1
    edge = LP(2, {(top, -top): 1})
    for a, b in ((edge, LP.variable(0, 2)),
                 (LP.variable(1, 2, 2**30), LP.variable(1, 2, 2**30))):
        with pytest.raises(OverflowError):
            a * b
        with pytest.raises(OverflowError):
            _kronecker_mul(a, b)
    assert_same_product(LP.variable(0, 1, 2**30 - 1), LP.variable(0, 1, 2**30))
