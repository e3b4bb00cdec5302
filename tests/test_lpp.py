import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    in_domain,
    lpp_time_by_paths,
    random_bounded_filling,
    random_filling,
    terminal_set,
)
from lppqs.characters import (
    LaurentPolynomial as LP,
    bounded_character_sum,
    box_partitions,
    character_jt,
    product_of_variables,
    unpack_exponents,
)
from lppqs.growth import grow_grid
from lppqs.lpp import (
    KINDS,
    EnumerationBudgetError,
    Filling,
    Geometry,
    bz_map,
    degree_series,
    generating_series,
    lpp_time,
    oscillating_tableau,
    p2l_map,
    weight_of,
)
from lppqs.partitions import GTPattern, Partition, SpGTPattern, gt_type, interlaces
from lppqs.probability import exact_cdf, normalization_constant

x = LP.variable(0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_square_counts(n):
    assert len(Geometry("p2hlr", n).squares()) == n * n + n
    assert len(Geometry("p2pr", n).squares()) == n * (n + 1) // 2
    assert len(Geometry("p2l", n).squares()) == n * (n + 1) // 2
    # row-major, straight from the domain's inequalities
    grid = [(i, j) for j in range(1, 2 * n + 2) for i in range(1, 2 * n + 2)]
    for kind in KINDS:
        squares = Geometry(kind, n).squares()
        assert squares == [sq for sq in grid if in_domain(kind, n, *sq)]
        # the terminal set is where no up-right step stays in the domain
        inside = set(squares)
        sinks = [(i, j) for i, j in squares
                 if (i + 1, j) not in inside and (i, j + 1) not in inside]
        assert sinks == terminal_set(kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_degree_is_the_total_exponent_of_a_square(kind):
    for n in range(1, 8):
        geo = Geometry(kind, n)
        for i, j in geo.squares():
            assert geo.degree(i, j) == sum(geo.variable_exponent(i, j)), (n, i, j)
        # degree 1 on the reflecting diagonal only: n squares of p2hlr and p2pr
        ones = [sq for sq in geo.squares() if geo.degree(*sq) == 1]
        assert ones == ([] if kind == "p2l" else [(i, i) for i in range(1, n + 1)])


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry("p2x", 1)
    with pytest.raises(ValueError):
        Geometry("p2l", 0)
    with pytest.raises(ValueError):
        Filling(Geometry("p2pr", 2), {(2, 1): 1})  # below the diagonal
    with pytest.raises(ValueError):
        Filling(Geometry("p2l", 2), {(1, 1): -1})


def test_lpp_time_examples():
    assert lpp_time(Filling(Geometry("p2l", 3), {})) == 0
    f = Filling(Geometry("p2pr", 2), {(1, 1): 1, (1, 2): 2, (2, 2): 0})
    assert lpp_time(f) == 3
    f2 = Filling(Geometry("p2hlr", 1), {(1, 1): 4, (1, 2): 5})
    assert lpp_time(f2) == 9


def test_lpp_time_matches_path_enumeration(rng):
    for kind in ("p2hlr", "p2pr", "p2l"):
        for _ in range(40):
            n = rng.randint(1, 3)
            f = random_filling(Geometry(kind, n), rng, max_entry=4, density=0.6)
            assert lpp_time(f) == lpp_time_by_paths(f)


@pytest.mark.parametrize("kind", KINDS)
def test_column_frontier_invariants(kind):
    # what the one-value-per-column walks of lpp_time, generating_series and
    # sample_passage_times rely on
    for n in range(1, 9):
        geo = Geometry(kind, n)
        squares = geo.squares()
        assert squares == sorted(squares, key=lambda sq: (sq[1], sq[0]))
        assert list(Filling(geo, {}).weights) == squares
        # each column's squares sit in one run of consecutive rows
        for i in range(1, n + 1):
            rows = [j for c, j in squares if c == i]
            assert rows == list(range(rows[0], rows[0] + len(rows)))
        # a square east of column 1 has its west neighbour in the domain
        assert all((i - 1, j) in squares for i, j in squares if i >= 2)
        # every square reaches a terminal square by up-right steps
        terminals = set(terminal_set(kind, n))
        reach = set()
        for i, j in reversed(squares):
            if (i, j) in terminals or (i + 1, j) in reach or (i, j + 1) in reach:
                reach.add((i, j))
        assert reach == set(squares)


def test_weight_of_examples():
    assert weight_of(Filling(Geometry("p2pr", 2), {})) == LP.one(2)
    f = Filling(Geometry("p2hlr", 1), {(1, 1): 2, (1, 2): 3})
    assert weight_of(f) == LP.monomial((8,), 1)  # x^(a + 2b)
    fl = Filling(Geometry("p2l", 1), {(1, 1): 4})
    assert weight_of(fl) == LP.monomial((8,), 1)


def test_weight_of_row_assignment():
    # p2hlr at n=2: rows 3 and 4 reuse the variables of rows 2 and 1
    geo = Geometry("p2hlr", 2)
    assert weight_of(Filling(geo, {(1, 4): 1})) == LP.monomial((2, 0), 2)
    assert weight_of(Filling(geo, {(1, 3): 1})) == LP.monomial((1, 1), 2)
    assert weight_of(Filling(geo, {(2, 2): 1})) == LP.monomial((0, 1), 2)
    # p2l at n=2: row j carries the variable of column n+1-j
    geol = Geometry("p2l", 2)
    assert weight_of(Filling(geol, {(1, 2): 1})) == LP.monomial((2, 0), 2)
    assert weight_of(Filling(geol, {(2, 1): 1})) == LP.monomial((0, 2), 2)
    assert weight_of(Filling(geol, {(1, 1): 1})) == LP.monomial((1, 1), 2)


def test_generating_series_examples():
    assert generating_series(Geometry("p2pr", 2), 0) == LP.one(2)
    x2 = x * x
    assert generating_series(Geometry("p2hlr", 1), 2) == 1 + x + 2 * x2 + x2 * x + x2 * x2
    assert generating_series(Geometry("p2pr", 1), 2) == 1 + x + x2
    assert generating_series(Geometry("p2l", 1), 1) == 1 + x2
    # 1640 squares, deeper than Python's default recursion limit
    assert generating_series(Geometry("p2hlr", 40), 0) == LP.one(40)


def test_generating_series_by_direct_enumeration():
    # the frontier walk against filtering the full weight cube {0..bound}^squares
    cases = [(kind, 1, bound) for kind in KINDS for bound in range(7)]
    cases += [("p2hlr", 2, bound) for bound in range(4)]
    cases += [(kind, n, bound) for kind in ("p2pr", "p2l") for n in (2, 3)
              for bound in range(3)]
    for kind, n, bound in cases:
        geo = Geometry(kind, n)
        squares = geo.squares()
        kept = [
            f for f in (
                Filling(geo, dict(zip(squares, ws)))
                for ws in itertools.product(range(bound + 1), repeat=len(squares))
            )
            if lpp_time(f) <= bound
        ]
        series = generating_series(geo, bound)
        assert series == sum(map(weight_of, kept), LP.zero(n)), (kind, n, bound)
        assert sum(series.terms.values()) == len(kept), (kind, n, bound)


def test_generating_series_budget():
    with pytest.raises(EnumerationBudgetError):
        generating_series(Geometry("p2hlr", 3), 4, node_budget=50)


def test_generating_series_checks_the_exponent_range_first():
    # weight 2^30 on the single p2l square gives x1^(2^31), past the packed
    # range; the check comes before any node is spent
    with pytest.raises(OverflowError):
        generating_series(Geometry("p2l", 1), 2**30, node_budget=1)


# every size where the n-variable series is cheap enough to collapse
SERIES_ORACLE_CASES = [
    (kind, n, bound) for kind in KINDS for n in (1, 2, 3) for bound in range(5)
] + [("p2l", 4, bound) for bound in range(5)]


@pytest.mark.parametrize("kind,n,bound", SERIES_ORACLE_CASES)
def test_degree_series_collapses_generating_series(kind, n, bound):
    geo = Geometry(kind, n)
    series = generating_series(geo, bound)
    by_degree = {}
    for key, coef in series.terms.items():
        degree = sum(unpack_exponents(key, n))
        by_degree[degree] = by_degree.get(degree, 0) + coef
    collapsed = degree_series(geo, bound)
    assert collapsed.nvars == 1
    assert collapsed.terms == by_degree
    for y in (Fraction(1, 2), Fraction(7, 10)):
        expected = normalization_constant(geo, y) * series.specialize([y] * n)
        assert exact_cdf(geo, bound, y) == expected


def test_degree_series_rejects_bad_bounds():
    with pytest.raises(ValueError):
        degree_series(Geometry("p2pr", 2), -1)
    with pytest.raises(EnumerationBudgetError):
        degree_series(Geometry("p2hlr", 3), 4, node_budget=50)


def test_degree_series_checks_the_exponent_range_first():
    # weight 2^30 on the single p2l square gives t^(2^31), past the packed
    # range; the check comes before any node is spent
    with pytest.raises(OverflowError):
        degree_series(Geometry("p2l", 1), 2**30, node_budget=1)


def test_bz_zero_filling_gives_constant_pattern():
    f = Filling(Geometry("p2hlr", 2), {})
    z = bz_map(f, 3, "forward")
    assert z.rows == ((3,), (3,), (3, 3), (3, 3))
    assert z.shape() == Partition([3, 3])
    assert bz_map(z, 3, "inverse") == f


def test_bz_small_example_with_weight_transport():
    f = Filling(Geometry("p2hlr", 1), {(1, 1): 1, (1, 2): 0})
    z = bz_map(f, 2, "forward")
    assert z.rows == ((1,), (1,))
    assert z.shape() == Partition([1])
    ty = gt_type(z)
    # weight x1 = (x1^u) * x1^(-(type1 - type2))
    assert weight_of(f) == LP.monomial((2 - (ty[0] - ty[1]),), 1)
    assert bz_map(z, 2, "inverse") == f


def test_bz_rejects_out_of_bound_inputs():
    f = Filling(Geometry("p2hlr", 1), {(1, 1): 3})
    with pytest.raises(ValueError):
        bz_map(f, 2, "forward")
    z = SpGTPattern([[3], [3]])
    with pytest.raises(ValueError):
        bz_map(z, 2, "inverse")


def test_bz_round_trip_and_weight_transport(rng):
    for _ in range(200):
        f, u = random_bounded_filling(rng)
        n = f.geometry.n
        z = bz_map(f, u, "forward")
        assert all(0 <= e <= u for row in z.rows for e in row)
        assert z.shape()[0] <= u
        assert bz_map(z, u, "inverse") == f
        ty = gt_type(z)
        exps = tuple(u - (ty[2 * i] - ty[2 * i + 1]) for i in range(n))
        assert weight_of(f) == LP.monomial(exps, n)


def test_oscillating_tableau_structure(rng):
    for _ in range(25):
        f, u = random_bounded_filling(rng)
        chain = oscillating_tableau(f)
        assert len(chain) == 2 * f.geometry.n + 1
        assert chain[0] == Partition([])
        assert all(0 <= v <= u for part in chain for v in part)
        # the chain alternates up/down interlacing
        for k in range(1, len(chain)):
            lo, hi = (chain[k - 1], chain[k]) if k % 2 else (chain[k], chain[k - 1])
            assert interlaces(lo, hi)


def test_p2l_examples():
    f = Filling(Geometry("p2l", 1), {(1, 1): 3})
    z = p2l_map(f, "forward")
    assert z.rows == ((6,),)
    assert p2l_map(z, "inverse") == f
    zero = Filling(Geometry("p2l", 2), {})
    assert p2l_map(zero, "forward").shape() == Partition([])


def test_p2l_rejects_odd_shapes():
    with pytest.raises(ValueError):
        p2l_map(GTPattern([[3]]), "inverse")


def test_p2l_round_trip_properties(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        f = random_filling(Geometry("p2l", n), rng, max_entry=3, density=0.5)
        z = p2l_map(f, "forward")
        sh = z.shape()
        assert sh.has_even_rows()
        assert sh[0] == 2 * lpp_time(f)
        assert p2l_map(z, "inverse") == f
        # column sums of the symmetrized matrix match the pattern type
        ty = gt_type(z)
        col = [0] * n
        for (i, j), w in f.weights.items():
            col[i - 1] += w
            col[n - j] += w
        assert tuple(col) == ty


def test_p2l_map_matches_full_square_growth(rng):
    # independent route: flip the triangle, double the hypotenuse, reflect
    # into the full symmetric n x n matrix and grow all of it
    for _ in range(200):
        n = rng.randint(1, 6)
        f = random_filling(Geometry("p2l", n), rng, max_entry=3, density=0.5)
        mat = [[0] * n for _ in range(n)]
        for (i, j), w in f.weights.items():
            a, b = i, n + 1 - j
            mat[a - 1][b - 1] = mat[b - 1][a - 1] = 2 * w if a == b else w
        grid = grow_grid(mat, "col")
        north = [grid[i, n] for i in range(n + 1)]
        assert north == [grid[n, j] for j in range(n + 1)]
        assert GTPattern.from_chain(north) == p2l_map(f, "forward")


@pytest.mark.parametrize("n,u", [(1, 2), (1, 4), (2, 2)])
def test_series_identities_small(n, u):
    hlr = generating_series(Geometry("p2hlr", n), u)
    pr = generating_series(Geometry("p2pr", n), u)
    pl = generating_series(Geometry("p2l", n), u // 2)
    assert hlr == pr * pl
    assert pr == bounded_character_sum("schur", u, n)
    assert pl == bounded_character_sum("schur", u, n, even_rows_only=True)
    sp_sum = LP.zero(n)
    for lam in box_partitions(u, n):
        sp_sum = sp_sum + character_jt("symplectic", lam, n)
    assert hlr == product_of_variables(n, u) * sp_sum


def test_filling_text_round_trip(rng):
    for kind, n in [("p2hlr", 1), ("p2hlr", 3), ("p2pr", 2), ("p2l", 3)]:
        geo = Geometry(kind, n)
        f = random_filling(geo, rng, max_entry=5, density=0.7)
        assert Filling.from_text(kind, f.to_text()) == f


def test_filling_text_is_pinned():
    # the bytes of one seeded n = 3 filling per kind; '-' marks squares
    # outside the domain
    pinned = {
        "p2hlr": "1 - -\n0 1 -\n0 2 0\n1 0 0\n2 0 -\n1 - -\n",
        "p2pr": "1 0 0\n2 0 -\n1 - -\n",
        "p2l": "0 - -\n1 0 -\n1 2 0\n",
    }
    for kind, text in pinned.items():
        f = random_filling(Geometry(kind, 3), random.Random(3))
        assert f.to_text() == text
        assert Filling.from_text(kind, text) == f


def test_filling_text_errors():
    with pytest.raises(ValueError) as exc:
        Filling.from_text("p2l", "1 2\n3 4\n")
    assert str(exc.value) == "square (2, 2) is outside the domain"
    with pytest.raises(ValueError) as exc:
        Filling.from_text("p2pr", "- 1\n0 -\n")
    assert str(exc.value) == "square (1, 2) is inside the domain"
    with pytest.raises(ValueError):
        Filling.from_text("p2pr", "- -\n1\n")  # short line
    with pytest.raises(ValueError):
        Filling.from_text("p2hlr", "0\n")  # odd line count for p2hlr
