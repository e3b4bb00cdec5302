"""Last passage percolation in three planar geometries.

Squares are addressed by the cartesian coordinates (i, j) of their top-right
corner, i running east and j north.  The three domains are

* p2hlr: squares with i <= j and i + j <= 2n + 1 (n^2 + n squares); polymers
  run from (1, 1) to the anti-diagonal i + j = 2n + 1;
* p2pr:  squares with i <= j <= n (n(n+1)/2 squares); polymers run from
  (1, 1) to (n, n);
* p2l:   squares with i + j <= n + 1 (n(n+1)/2 squares); polymers run from
  (1, 1) to the anti-diagonal i + j = n + 1.

Column i carries variable x_i.  Row j carries x_j (p2pr), x_{n+1-j} (p2l),
and x_j for j <= n, x_{2n+1-j} for j > n (p2hlr).  A square contributes
(column * row)^w, except squares on the diagonal i = j of p2hlr/p2pr which
contribute column^w only.
"""

from __future__ import annotations

from typing import Mapping

from .characters import LaurentPolynomial, check_exponent_range, pack_exponents
from .growth import COL, ROW, grow, ungrow
from .partitions import EMPTY, GTPattern, Partition, SpGTPattern

P2HLR = "p2hlr"
P2PR = "p2pr"
P2L = "p2l"
KINDS = (P2HLR, P2PR, P2L)
NODE_BUDGET = 2_000_000  # default node budget of a generating-series walk


class EnumerationBudgetError(RuntimeError):
    """Raised when a generating series exceeds its node budget."""


class Geometry:
    """One of the three triangular domains at a given size n."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in KINDS:
            raise ValueError(f"unknown geometry kind {kind!r}")
        if n < 1:
            raise ValueError("n must be positive")
        self.kind = kind
        self.n = int(n)

    def squares(self) -> list[tuple[int, int]]:
        """All squares, sorted row-major (j ascending, then i)."""
        n = self.n
        if self.kind == P2HLR:
            return [
                (i, j) for j in range(1, 2 * n + 1) for i in range(1, min(j, 2 * n + 1 - j) + 1)
            ]
        if self.kind == P2PR:
            return [(i, j) for j in range(1, n + 1) for i in range(1, j + 1)]
        return [(i, j) for j in range(1, n + 1) for i in range(1, n + 2 - j)]

    def degree(self, i: int, j: int) -> int:
        """1 on the reflecting diagonal of p2hlr/p2pr, else 2: the square's total
        degree; its weight parameter at every x_i = y is y^degree."""
        return 1 if i == j and self.kind != P2L else 2

    def row_variable(self, j: int) -> int:
        """0-based index of the variable attached to row j."""
        n = self.n
        if self.kind == P2PR:
            return j - 1
        if self.kind == P2L:
            return n - j
        return j - 1 if j <= n else 2 * n - j

    def variable_exponent(self, i: int, j: int) -> tuple[int, ...]:
        """Exponent vector contributed by one unit of weight in square (i, j)."""
        exps = [0] * self.n
        exps[i - 1] += 1
        if self.degree(i, j) == 2:
            exps[self.row_variable(j)] += 1
        return tuple(exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Geometry)
            and (self.kind, self.n) == (other.kind, other.n)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.n))

    def __repr__(self) -> str:
        return f"Geometry({self.kind!r}, n={self.n})"


class Filling:
    """Non-negative integer weights on the squares of a geometry.

    weights holds every square of the domain, in squares() order.
    """

    __slots__ = ("geometry", "weights")

    def __init__(self, geometry: Geometry, weights: Mapping[tuple[int, int], int]):
        squares = geometry.squares()
        support = set(squares)
        clean = {}
        for sq, w in weights.items():
            sq = (int(sq[0]), int(sq[1]))
            w = int(w)
            if sq not in support:
                raise ValueError(f"square {sq} outside the domain of {geometry!r}")
            if w < 0:
                raise ValueError(f"negative weight at {sq}")
            clean[sq] = w
        self.geometry = geometry
        self.weights = {sq: clean.get(sq, 0) for sq in squares}

    def __getitem__(self, sq: tuple[int, int]) -> int:
        return self.weights[sq]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Filling)
            and self.geometry == other.geometry
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.geometry, tuple(sorted(self.weights.items()))))

    def __repr__(self) -> str:
        nz = {sq: w for sq, w in self.weights.items() if w}
        return f"Filling({self.geometry!r}, {nz})"

    # plain text grid: one line per row j, top row first; '-' marks squares
    # outside the domain; columns i = 1..n
    def to_text(self) -> str:
        geo = self.geometry
        n = geo.n
        jmax = 2 * n if geo.kind == P2HLR else n
        lines = []
        for j in range(jmax, 0, -1):
            cells = [
                str(self.weights[(i, j)]) if (i, j) in self.weights else "-"
                for i in range(1, n + 1)
            ]
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, kind: str, text: str) -> "Filling":
        rows = [line.split() for line in text.strip().splitlines()]
        if not rows:
            raise ValueError("empty filling file")
        n = len(rows) // 2 if kind == P2HLR else len(rows)
        geo = Geometry(kind, n)
        jmax = 2 * n if kind == P2HLR else n
        if len(rows) != jmax:
            raise ValueError(f"expected {jmax} lines for {kind} n={n}")
        support = set(geo.squares())
        weights = {}
        for line_no, cells in enumerate(rows):
            j = jmax - line_no
            if len(cells) != n:
                raise ValueError(f"line {line_no + 1}: expected {n} cells")
            for idx, cell in enumerate(cells):
                i = idx + 1
                if (i, j) in support:
                    if cell == "-":
                        raise ValueError(f"square ({i}, {j}) is inside the domain")
                    weights[(i, j)] = int(cell)
                elif cell != "-":
                    raise ValueError(f"square ({i}, {j}) is outside the domain")
        return cls(geo, weights)


def lpp_time(filling: Filling) -> int:
    """Maximum weight of an up-right polymer from (1, 1) to the terminal set.

    In every domain a column's squares sit in consecutive rows and a square
    in column i >= 2 has its west neighbour inside, so a walk in squares()
    order keeps one value per column: front[i] = max(front[i], front[i-1])
    + w.  Every square reaches a terminal square and weights are
    non-negative, so the passage time is the largest final column value.
    """
    front = [0] * (filling.geometry.n + 1)
    for (i, _j), w in filling.weights.items():
        front[i] = max(front[i], front[i - 1]) + w
    return max(front)


def weight_of(filling: Filling) -> LaurentPolynomial:
    """Monomial weight of a filling in x_1 ... x_n."""
    geo = filling.geometry
    exps = [0] * geo.n
    for (i, j), w in filling.weights.items():
        if w:
            for k, e in enumerate(geo.variable_exponent(i, j)):
                exps[k] += w * e
    return LaurentPolynomial.monomial(exps, geo.n)


def _frontier_walk(
    geo: Geometry, bound: int, steps: list[int], node_budget: int
) -> dict[int, int]:
    """Packed terms of the sum over fillings W with lpp_time(W) <= bound of
    the monomial whose key is sum_s W[s] * steps[s], s in squares() order.

    The column frontier of lpp_time, walked over all fillings at once: a
    state is the tuple of column values, carrying the terms of the partial
    fillings that reach it.  Weights stop where a column would pass the
    bound, which is exact because every square reaches a terminal square.
    A column is reset to 0 after the last square that reads it, so states
    that differ only in dead columns merge, and one state is left at the
    end.  A node is one term carried one square; raises
    EnumerationBudgetError past the node budget.
    """
    squares = geo.squares()
    # last[c]: index of the last square that reads column c, in column c or c+1
    end = {i: k for k, (i, _j) in enumerate(squares)}
    last = [max(end.get(c, 0), end.get(c + 1, 0)) for c in range(geo.n + 1)]
    states = {(0,) * (geo.n + 1): {0: 1}}
    nodes = 0
    for k, ((i, _j), step) in enumerate(zip(squares, steps)):
        spread: dict[tuple[int, ...], dict[int, int]] = {}
        while states:
            front, series = states.popitem()
            base = max(front[i], front[i - 1])
            nodes += (bound - base + 1) * len(series)
            if nodes > node_budget:
                raise EnumerationBudgetError(f"enumeration exceeded {node_budget} nodes")
            front = list(front)
            if last[i - 1] == k:
                front[i - 1] = 0
            for w in range(bound - base + 1):
                front[i] = base + w if last[i] > k else 0
                out = spread.setdefault(tuple(front), {})
                shift = w * step
                for key, count in series.items():
                    key += shift
                    out[key] = out.get(key, 0) + count
        states = spread
    (terms,) = states.values()
    return terms


def generating_series(
    geometry: Geometry, bound: int, node_budget: int = NODE_BUDGET
) -> LaurentPolynomial:
    """Sum of weight_of(W) over all fillings with lpp_time(W) <= bound.

    One walk of _frontier_walk, each square stepping by its packed exponent
    vector.  Raises EnumerationBudgetError past the node budget.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    evecs = [geometry.variable_exponent(i, j) for (i, j) in geometry.squares()]
    # every weight is at most the bound, so no exponent passes this
    exponent_bound = bound * max(map(sum, zip(*evecs)))
    check_exponent_range(exponent_bound)
    terms = _frontier_walk(geometry, bound, list(map(pack_exponents, evecs)), node_budget)
    return LaurentPolynomial.from_packed(geometry.n, terms, exponent_bound)


def degree_series(
    geometry: Geometry, bound: int, node_budget: int = NODE_BUDGET
) -> LaurentPolynomial:
    """generating_series at x_1 = ... = x_n = t, as a polynomial in t.

    Setting every variable to t is a ring homomorphism, so each square steps
    by its Geometry.degree and each state of the walk carries at most one
    term per total degree.  A node is one such term carried one square;
    raises EnumerationBudgetError past the node budget.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    steps = [geometry.degree(i, j) for (i, j) in geometry.squares()]
    # every weight is at most the bound, so no total degree passes this
    check_exponent_range(bound * sum(steps))
    terms = _frontier_walk(geometry, bound, steps, node_budget)
    return LaurentPolynomial.from_packed(1, terms, max(terms))


# --- the quarter-square bijection -------------------------------------------


def _chain_points(n: int) -> list[tuple[int, int]]:
    """Lattice points of the north-east boundary chain, k = 0 .. 2n."""
    return [(0, 2 * n)] + [
        ((k + 1) // 2, 2 * n - k // 2) for k in range(1, 2 * n + 1)
    ]


def _complement(parts, k: int, u: int) -> tuple[int, ...]:
    """u minus the first ceil(k/2) parts, in reverse order.

    An involution between the k-th partition of the boundary chain and row k
    of the half pattern; both directions of bz_map use it.
    """
    return tuple(u - parts[r] for r in reversed(range(SpGTPattern.row_length(k))))


def oscillating_tableau(filling: Filling) -> list[Partition]:
    """Boundary chain of the quarter-square growth, k = 0 (empty) .. 2n.

    Row-rule growth over the p2hlr squares with the reflecting diagonal;
    the k-th partition sits at the k-th point of the north-east boundary,
    and consecutive partitions alternately grow and shrink.
    """
    geo = filling.geometry
    if geo.kind != P2HLR:
        raise ValueError("oscillating tableaux come from the p2hlr geometry")
    squares = geo.squares()
    pts = grow(squares, [filling.weights[sq] for sq in squares], ROW, reflect=True)
    return [pts[pt] for pt in _chain_points(geo.n)]


def bz_map(obj, u: int, direction: str = "forward"):
    """Bijection between bounded quarter-square fillings and half patterns.

    forward: Filling (p2hlr, passage time <= u) -> SpGTPattern of height 2n
    with first part of the shape <= u.  inverse: the reverse.  The map is
    growth along the triangle, extraction of the boundary chain (the
    oscillating tableau), and subtraction of each partition from u.
    """
    if direction == "forward":
        filling = obj
        if not isinstance(filling, Filling) or filling.geometry.kind != P2HLR:
            raise ValueError("forward direction expects a p2hlr filling")
        time = lpp_time(filling)
        if time > u:
            raise ValueError(f"passage time {time} exceeds the bound {u}")
        chain = oscillating_tableau(filling)
        return SpGTPattern([_complement(chain[k], k, u) for k in range(1, len(chain))])

    if direction == "inverse":
        z = obj
        if not isinstance(z, SpGTPattern):
            raise ValueError("inverse direction expects a symplectic pattern")
        if z.shape()[0] > u:
            raise ValueError("pattern shape exceeds the bound")
        # every entry is at most the shape's first part, so no part is negative
        chain = [EMPTY] + [
            Partition(_complement(row, k, u)) for k, row in enumerate(z.rows, start=1)
        ]
        geo = Geometry(P2HLR, z.letters())
        squares = geo.squares()
        boundary = dict(zip(_chain_points(geo.n), chain))
        weights = ungrow(squares, boundary, ROW, reflect=True)
        return Filling(geo, dict(zip(squares, weights)))

    raise ValueError(f"unknown direction {direction!r}")


# --- the point-to-line bijection ---------------------------------------------


def p2l_map(obj, direction: str = "forward"):
    """Bijection between point-to-line fillings and even-shaped patterns.

    forward: Filling (p2l) -> GTPattern of height n whose shape has all
    parts even and first part twice the passage time.  The filling is
    flipped onto the p2pr triangle, square (i, j) of the triangle carrying
    the weight at (i, n+1-j), with the hypotenuse doubled; column-rule
    growth with the reflecting diagonal then puts the pattern's chain on
    the points (0, n) .. (n, n) of the top edge.  This is the growth of the symmetric n x n matrix the
    triangle folds out to, read on one half.
    """
    if direction == "forward":
        filling = obj
        if not isinstance(filling, Filling) or filling.geometry.kind != P2L:
            raise ValueError("forward direction expects a p2l filling")
        n = filling.geometry.n
        squares = Geometry(P2PR, n).squares()
        weights = [
            filling.weights[i, n + 1 - j] * (2 if i == j else 1) for i, j in squares
        ]
        pts = grow(squares, weights, COL, reflect=True)
        return GTPattern.from_chain([pts[i, n] for i in range(n + 1)])

    if direction == "inverse":
        z = obj
        if not isinstance(z, GTPattern):
            raise ValueError("inverse direction expects an ordinary pattern")
        n = z.height()
        if not z.shape().has_even_rows():
            raise ValueError("pattern shape must have even rows")
        squares = Geometry(P2PR, n).squares()
        boundary = {(i, n): lam for i, lam in enumerate(z.to_chain())}
        weights = {}
        for (i, j), w in zip(squares, ungrow(squares, boundary, COL, reflect=True)):
            if i == j:
                if w % 2:
                    raise ValueError("reconstruction has an odd hypotenuse entry")
                w //= 2
            weights[i, n + 1 - j] = w
        return Filling(Geometry(P2L, n), weights)

    raise ValueError(f"unknown direction {direction!r}")
