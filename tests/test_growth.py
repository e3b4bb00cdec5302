import pytest

from conftest import random_cover, random_partition
from lppqs.growth import (
    apply_local,
    col_rsk_local,
    greene_oracle,
    grow,
    grow_grid,
    invert_local,
    rectangle,
    row_rsk_local,
    ungrow,
)
from lppqs.lpp import Geometry
from lppqs.partitions import EMPTY, Partition, interlaces

P = Partition


def test_row_rule_examples():
    assert row_rsk_local(EMPTY, EMPTY, EMPTY, 5) == P([5])
    assert row_rsk_local(P([2]), P([1]), P([1]), 3) == P([5])


def test_col_rule_examples():
    assert col_rsk_local(EMPTY, EMPTY, EMPTY, 5) == P([5])
    assert col_rsk_local(P([2]), P([1]), P([1]), 3) == P([4, 1])


def test_local_rules_reject_bad_input():
    with pytest.raises(ValueError):
        row_rsk_local(P([1]), P([1]), P([2]), 0)  # kappa not below alpha
    with pytest.raises(ValueError):
        col_rsk_local(P([3]), P([1]), P([2]), 1)
    with pytest.raises(ValueError):
        row_rsk_local(EMPTY, EMPTY, EMPTY, -1)


def test_invert_examples():
    assert invert_local("col", EMPTY, EMPTY, P([7])) == (EMPTY, 7)
    assert invert_local("col", P([2]), P([1]), P([4, 1])) == (P([1]), 3)
    assert invert_local("row", P([2]), P([1]), P([5])) == (P([1]), 3)


def test_invert_rejects_non_interlacing():
    with pytest.raises(ValueError):
        invert_local("row", P([3]), EMPTY, P([1]))
    with pytest.raises(ValueError):
        invert_local("col", P([2, 2]), P([2]), P([2, 1]))


def test_local_round_trips_and_conservation(rng):
    for rule in ("row", "col"):
        for _ in range(1000):
            kappa = random_partition(rng)
            alpha = random_cover(rng, kappa)
            beta = random_cover(rng, kappa)
            g = rng.randint(0, 6)
            nu = apply_local(rule, alpha, beta, kappa, g)
            assert interlaces(alpha, nu) and interlaces(beta, nu)
            assert kappa.size() + nu.size() == alpha.size() + beta.size() + g
            assert invert_local(rule, alpha, beta, nu) == (kappa, g)


def test_grow_grid_zero_matrix():
    grid = grow_grid([[0, 0, 0], [0, 0, 0]], "row")
    for i in range(3):
        for j in range(4):
            assert grid[i, j] == EMPTY


def test_grow_grid_corners():
    w = [[1, 2], [0, 3]]
    assert grow_grid(w, "row")[2, 2] == P([6])
    assert grow_grid(w, "col")[2, 2] == P([5, 1])


def test_grow_grid_rejects_negative():
    with pytest.raises(ValueError):
        grow_grid([[1, -1]], "row")


def test_boundary_chains_interlace_and_track_margins(rng):
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        for rule in ("row", "col"):
            grid = grow_grid(mat, rule)
            north = [grid[i, n] for i in range(m + 1)]
            east = [grid[m, j] for j in range(n + 1)]
            for lo, hi in zip(north, north[1:]):
                assert interlaces(lo, hi)
            for lo, hi in zip(east, east[1:]):
                assert interlaces(lo, hi)
            # row k sum = |grid[m, k]| - |grid[m, k-1]|, col k likewise
            for k in range(1, n + 1):
                row_sum = sum(mat[i][k - 1] for i in range(m))
                assert row_sum == east[k].size() - east[k - 1].size()
            for k in range(1, m + 1):
                col_sum = sum(mat[k - 1][j] for j in range(n))
                assert col_sum == north[k].size() - north[k - 1].size()


def test_cell_conservation_everywhere(rng):
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        for rule in ("row", "col"):
            grid = grow_grid(mat, rule)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    lhs = grid[i - 1, j - 1].size() + grid[i, j].size()
                    rhs = (
                        grid[i - 1, j].size()
                        + grid[i, j - 1].size()
                        + mat[i - 1][j - 1]
                    )
                    assert lhs == rhs


def _boundary(squares, pts):
    """The grown points that are no square's lower-left corner."""
    corners = {(i - 1, j - 1) for i, j in squares}
    return {pt: part for pt, part in pts.items() if pt not in corners}


def test_ungrow_inverts_grow_on_rectangles(rng):
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        squares = rectangle(m, n)
        weights = [rng.randint(0, 4) for _ in squares]
        for rule in ("row", "col"):
            pts = grow(squares, weights, rule)
            assert ungrow(squares, _boundary(squares, pts), rule) == weights


def test_ungrow_inverts_reflected_growth_on_quarter_squares(rng):
    for _ in range(40):
        squares = Geometry("p2hlr", rng.randint(1, 4)).squares()
        weights = [rng.randint(0, 3) if rng.random() < 0.5 else 0 for _ in squares]
        pts = grow(squares, weights, "row", reflect=True)
        boundary = _boundary(squares, pts)
        assert ungrow(squares, boundary, "row", reflect=True) == weights


def test_ungrow_rejects_a_non_empty_axis_partition():
    # (1, 1) inverts to weight 1 and kappa empty, but the axis point (0, 1)
    # holds (1): no filling grows this boundary
    boundary = {(0, 1): P([1]), (1, 0): EMPTY, (1, 1): P([2])}
    with pytest.raises(ValueError, match="axis"):
        ungrow(rectangle(1, 1), boundary, "row")


def test_greene_oracle_examples():
    w = [[1, 2], [0, 3]]
    assert greene_oracle(w, 1, "up_right") == 6
    assert greene_oracle(w, 1, "down_right") == 5
    assert greene_oracle([[0, 0], [0, 0]], 2, "up_right") == 0
    with pytest.raises(ValueError):
        greene_oracle(w, 3, "up_right")


def test_greene_full_cover_square(rng):
    for _ in range(10):
        mat = [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
        total = sum(sum(row) for row in mat)
        assert greene_oracle(mat, 3, "up_right") == total
        assert greene_oracle(mat, 3, "down_right") == total


def test_growth_matches_oracle(rng):
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        lam = grow_grid(mat, "row")[m, n]
        mu = grow_grid(mat, "col")[m, n]
        for k in range(1, min(m, n) + 1):
            assert sum(lam[i] for i in range(k)) == greene_oracle(mat, k, "up_right")
            assert sum(mu[i] for i in range(k)) == greene_oracle(mat, k, "down_right")


def _interlacing_above(alpha, beta, size):
    """All nu with alpha < nu > beta and |nu| = size."""
    floor = [max(alpha[0], beta[0])]
    length = min(len(alpha), len(beta)) + 1
    for s in range(1, length):
        floor.append(max(alpha[s], beta[s]))
    out = []

    def rec(s, acc, remaining):
        if s == length:
            if remaining == 0:
                out.append(Partition(acc))
            return
        lo = floor[s]
        hi = remaining if s == 0 else min(alpha[s - 1], beta[s - 1], remaining)
        for v in range(lo, hi + 1):
            rec(s + 1, acc + [v], remaining - v)

    rec(0, [], size)
    return out


def _interlacing_below_both(alpha, beta):
    """All kappa with alpha > kappa < beta."""
    length = min(len(alpha), len(beta))
    out = []

    def rec(s, acc):
        if s == length:
            out.append(Partition(acc))
            return
        lo = max(alpha[s + 1], beta[s + 1])
        hi = min(alpha[s], beta[s])
        for v in range(lo, hi + 1):
            rec(s + 1, acc + [v])

    rec(0, [])
    return out


@pytest.mark.parametrize("rule", ["row", "col"])
def test_transport_is_a_degree_preserving_bijection(rule):
    # for fixed alpha, beta the rule matches {(kappa, g)} with {nu} so that
    # |nu| = |alpha| + |beta| + g - |kappa|, exactly, degree by degree
    cases = [
        (EMPTY, EMPTY),
        (P([1]), P([1])),
        (P([2]), P([1])),
        (P([2, 1]), P([2])),
        (P([3, 1]), P([2, 2])),
    ]
    for alpha, beta in cases:
        for d in range(0, 9):
            nus = set(_interlacing_above(alpha, beta, d))
            images = set()
            for kappa in _interlacing_below_both(alpha, beta):
                g = d + kappa.size() - alpha.size() - beta.size()
                if g < 0:
                    continue
                nu = apply_local(rule, alpha, beta, kappa, g)
                assert nu.size() == d
                assert nu not in images  # injectivity
                images.add(nu)
            assert images == nus
