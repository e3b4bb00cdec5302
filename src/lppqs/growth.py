"""Local growth rules, their inverses, grid growth, and a path oracle.

Two (max, +) local rules transport a pair (kappa, g) with
alpha > kappa < beta to a partition nu with alpha < nu > beta, conserving
|kappa| + |nu| = |alpha| + |beta| + g.  Grown over a matrix they compute,
at the far corner, the shapes whose partial sums are maxima over
non-intersecting lattice paths (the oracle checks this by brute force).

Matrix convention: ``weights[i][j]`` sits in the unit square with
top-right corner (i+1, j+1); the first index runs east, the second north.
Up-right paths step east or north; down-right paths step east or south.
"""

from __future__ import annotations

from functools import lru_cache
from operator import ge
from typing import Sequence

from .partitions import EMPTY, Partition

ROW = "row"
COL = "col"


def _envelopes(alpha: Partition, beta: Partition) -> tuple[list[int], list[int]]:
    """max(alpha_s, beta_s) and min(alpha_s, beta_s) for s < ell, where
    ell = min(len(alpha), len(beta)) + 1: the parts padded with zeros once."""
    a, b = alpha.parts, beta.parts
    ell = min(len(a), len(b)) + 1
    a += (0,) * (ell - len(a))
    b += (0,) * (ell - len(b))
    return list(map(max, a, b)), list(map(min, a, b))


def _below_both(kappa: Partition, alpha: Partition, beta: Partition, hi, lo) -> bool:
    """interlaces(kappa, alpha) and interlaces(kappa, beta), given the
    envelopes of alpha and beta: both tests in one pass, since
    alpha_s, beta_s >= kappa_s >= alpha_{s+1}, beta_{s+1} is
    min_s >= kappa_s >= max_{s+1}."""
    k = kappa.parts
    n = len(k)
    return (
        n <= len(alpha.parts) <= n + 1
        and n <= len(beta.parts) <= n + 1
        and all(map(ge, lo, k))
        and all(map(ge, k, hi[1:]))
    )


def _check_local_input(alpha: Partition, beta: Partition, kappa: Partition, g: int):
    """The envelopes of alpha and beta, and kappa padded to ell - 1 parts;
    raises ValueError unless g >= 0 and kappa interlaces below both."""
    if g < 0:
        raise ValueError("g must be non-negative")
    hi, lo = _envelopes(alpha, beta)
    if not _below_both(kappa, alpha, beta, hi, lo):
        raise ValueError(
            f"kappa must interlace below alpha and beta: {kappa!r}, {alpha!r}, {beta!r}"
        )
    return hi, lo, kappa.parts + (0,) * (len(hi) - 1 - len(kappa.parts))


def row_rsk_local(alpha: Partition, beta: Partition, kappa: Partition, g: int) -> Partition:
    """Row-insertion local rule.

    nu_1 = max(alpha_1, beta_1) + g and, for s >= 2,
    nu_s = max(alpha_s, beta_s) + min(alpha_{s-1}, beta_{s-1}) - kappa_{s-1}.
    """
    hi, lo, k = _check_local_input(alpha, beta, kappa, g)
    return Partition([hi[0] + g, *[h + m - c for h, m, c in zip(hi[1:], lo, k)]])


def col_rsk_local(alpha: Partition, beta: Partition, kappa: Partition, g: int) -> Partition:
    """Column-insertion local rule.

    Runs s = ell down to 1 with a carried g_s:
    nu_s = min(max(alpha_s, beta_s) + g_s, kappa_{s-1}), where kappa_0 acts
    as +infinity, so nu_1 = max(alpha_1, beta_1) + g_1.
    """
    hi, lo, k = _check_local_input(alpha, beta, kappa, g)
    nu = hi[:]
    gs = g
    for s in range(len(hi) - 1, 0, -1):
        h, cap = hi[s], k[s - 1]
        nu[s] = min(h + gs, cap)
        gs = gs - min(gs, cap - h) + lo[s - 1] - cap
    nu[0] += gs
    return Partition(nu)


def invert_local(
    rule: str, alpha: Partition, beta: Partition, nu: Partition
) -> tuple[Partition, int]:
    """Recover (kappa, g) such that the forward rule maps them to nu.

    Rejects nu that does not interlace above alpha and beta, and inputs
    whose reconstruction is inconsistent (negative g or invalid kappa).
    """
    v = nu.parts
    m = len(v)
    hi, lo = _envelopes(alpha, beta)
    # interlaces(alpha, nu) and interlaces(beta, nu) in one pass:
    # nu_s >= max(alpha_s, beta_s) and min(alpha_s, beta_s) >= nu_{s+1}
    if not (
        m - 1 <= len(alpha.parts) <= m
        and m - 1 <= len(beta.parts) <= m
        and all(map(ge, v, hi))
        and all(map(ge, lo, v[1:]))
    ):
        raise ValueError(
            f"nu must interlace above alpha and beta: {nu!r}, {alpha!r}, {beta!r}"
        )
    v += (0,) * (len(hi) - m)
    if rule == ROW:
        g = v[0] - hi[0]
        kappa_parts = [h + c - x for h, c, x in zip(hi[1:], lo, v[1:])]
    elif rule == COL:
        gs = v[0] - hi[0]
        kappa_parts = []
        for s in range(1, len(hi)):
            k = max(lo[s - 1] - gs, v[s])
            kappa_parts.append(k)
            gs += v[s] - hi[s] - lo[s - 1] + k
        g = gs
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if g < 0:
        raise ValueError("inconsistent input: reconstructed g is negative")
    try:
        kappa = Partition(kappa_parts)
    except ValueError as exc:
        raise ValueError(f"inconsistent input: {exc}") from exc
    if not _below_both(kappa, alpha, beta, hi, lo):
        raise ValueError("inconsistent input: kappa does not interlace")
    return kappa, g


def apply_local(rule: str, alpha, beta, kappa, g) -> Partition:
    if rule == ROW:
        return row_rsk_local(alpha, beta, kappa, g)
    if rule == COL:
        return col_rsk_local(alpha, beta, kappa, g)
    raise ValueError(f"unknown rule {rule!r}")


def _axis_points(squares) -> set[tuple[int, int]]:
    """Points on the axes that bound the given squares."""
    pts = set()
    for i, j in squares:
        if i == 1:
            pts.update(((0, j - 1), (0, j)))
        if j == 1:
            pts.update(((i - 1, 0), (i, 0)))
    return pts


def grow(squares, weights, rule: str, reflect: bool = False) -> dict:
    """Grow partitions over squares, in the given order, with one local rule.

    Square (i, j) with weight w maps the partitions at its corners (i-1, j),
    (i, j-1), (i-1, j-1) to the one at (i, j); every square's three lower
    corners must lie on the axes or at an earlier square.  Points on the axes
    carry the empty partition.  With reflect, a diagonal square (i, i) reads
    its south point from (i-1, i), the mirror image across the diagonal.
    Returns the partition at every point.
    """
    pts = dict.fromkeys(_axis_points(squares), EMPTY)
    for (i, j), w in zip(squares, weights):
        pts[i, j] = apply_local(
            rule,
            pts[i - 1, j],
            pts[i - 1, i] if reflect and i == j else pts[i, j - 1],
            pts[i - 1, j - 1],
            w,
        )
    return pts


def ungrow(squares, boundary, rule: str, reflect: bool = False) -> list[int]:
    """Inverse of :func:`grow`: the weights, in the order of squares, whose
    growth puts the given partitions on the boundary points.

    boundary holds every point the walk reads that is no square's lower-left
    corner.  Raises ValueError when a local step cannot be inverted or when
    the walk leaves a non-empty partition on an axis.
    """
    pts = dict(boundary)
    weights = [0] * len(squares)
    for k in range(len(squares) - 1, -1, -1):
        i, j = squares[k]
        pts[i - 1, j - 1], weights[k] = invert_local(
            rule,
            pts[i - 1, j],
            pts[i - 1, i] if reflect and i == j else pts[i, j - 1],
            pts[i, j],
        )
    if any(pts.get(pt) for pt in _axis_points(squares)):
        raise ValueError("inconsistent boundary: non-empty axis partition")
    return weights


def check_weight_matrix(weights: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Shape (m, n) of a non-empty rectangular non-negative matrix; raises
    ValueError otherwise."""
    m = len(weights)
    n = len(weights[0]) if m else 0
    if m < 1 or n < 1:
        raise ValueError("matrix must be at least 1x1")
    if any(len(row) != n for row in weights):
        raise ValueError("ragged weight matrix")
    if any(w < 0 for row in weights for w in row):
        raise ValueError("weights must be non-negative")
    return m, n


def rectangle(m: int, n: int) -> list[tuple[int, int]]:
    """Squares of the m-by-n rectangle, row-major (i, then j)."""
    return [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]


def grow_grid(weights: Sequence[Sequence[int]], rule: str) -> dict:
    """Grow the full rectangle of an m-by-n weight matrix with the chosen
    rule: the partition at every lattice point (i, j), 0 <= i <= m,
    0 <= j <= n, empty on both axes, with the corner shape at (m, n)."""
    m, n = check_weight_matrix(weights)
    flat = [w for row in weights for w in row]
    return grow(rectangle(m, n), flat, rule)


# --- brute-force non-intersecting path oracle --------------------------------

UP_RIGHT = "up_right"
DOWN_RIGHT = "down_right"


@lru_cache(maxsize=None)
def _monotone_paths(
    start: tuple[int, int], end: tuple[int, int], dj: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All lattice paths of unit steps (+1, 0) and (0, dj) from start to end."""
    si, sj = start
    ei, ej = end
    if (ej - sj) * dj < 0 or si > ei:
        return ()
    if start == end:
        return ((start,),)
    out = []
    if si < ei:
        for tail in _monotone_paths((si + 1, sj), end, dj):
            out.append((start,) + tail)
    if sj != ej:
        for tail in _monotone_paths((si, sj + dj), end, dj):
            out.append((start,) + tail)
    return tuple(out)


def greene_oracle(weights: Sequence[Sequence[int]], k: int, direction: str) -> int:
    """Exact maximum total weight of k vertex-disjoint monotone paths.

    up_right: path r runs from square (1, r) to (m, n-k+r);
    down_right: path r runs from square (1, n+1-r) to (m, k+1-r).
    Exhaustive search; intended for small matrices only.
    """
    m = len(weights)
    n = len(weights[0]) if m else 0
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must lie in 1..min(m, n) = {min(m, n)}")
    if direction == UP_RIGHT:
        slots = [((1, r), (m, n - k + r)) for r in range(1, k + 1)]
        dj = 1
    elif direction == DOWN_RIGHT:
        slots = [((1, n + 1 - r), (m, k + 1 - r)) for r in range(1, k + 1)]
        dj = -1
    else:
        raise ValueError(f"unknown direction {direction!r}")

    cell_bit = {}
    cell_weight = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cell_bit[(i, j)] = len(cell_weight)
            cell_weight.append(weights[i - 1][j - 1])

    candidates = []
    for start, end in slots:
        paths = []
        for path in _monotone_paths(start, end, dj):
            mask = 0
            total = 0
            for cell in path:
                mask |= 1 << cell_bit[cell]
                total += cell_weight[cell_bit[cell]]
            paths.append((mask, total))
        if not paths:
            raise ValueError("a path slot admits no monotone path")
        candidates.append(paths)

    best = -1

    def search(r: int, used: int, total: int):
        nonlocal best
        if r == k:
            best = max(best, total)
            return
        for mask, wsum in candidates[r]:
            if mask & used:
                continue
            search(r + 1, used | mask, total + wsum)

    search(0, 0, 0)
    if best < 0:
        raise ValueError("no disjoint path family exists")
    return best
