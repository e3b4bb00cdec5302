"""Exact Laurent-polynomial arithmetic and classical character formulas.

Characters of three families are computed two independent ways: by one walk
of the pattern model of :mod:`lppqs.partitions`, one level (one variable) at
a time up the interlacing chains, memoized on the partition reached at each
level; and as determinants of complete homogeneous symmetric functions.  The
walk serves single characters and every sum of characters over a box of
shapes; the determinant route (``character_jt``) is the oracle the tests
compare it with.  All arithmetic is exact (Python ints and fractions); no
floats anywhere.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .partitions import (
    SYMPLECTIC,
    GTPattern,
    Partition,
    SpGTPattern,
    _dual_subpartitions,
    _interlacings_below,
)

ExponentVector = tuple[int, ...]

# Terms are keyed by one packed int: key = sum_i e_i * R**(nvars - 1 - i) with
# radix R = 2**32, balanced digits |e_i| < R/2 and the first variable most
# significant.  Multiplying monomials is adding keys, and the integer order of
# keys is the lexicographic order of their exponent vectors.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
_HALF = 1 << (_SHIFT - 1)


def check_exponent_range(bound: int) -> None:
    """Raise OverflowError unless |exponents| <= bound fit a packed digit."""
    if bound >= _HALF:
        raise OverflowError(
            f"exponents up to {bound} leave the packed range |e| < 2**{_SHIFT - 1}"
        )


def pack_exponents(exps: Sequence[int]) -> int:
    """Packed key of an exponent vector."""
    key = 0
    for e in exps:
        check_exponent_range(abs(e))
        key = (key << _SHIFT) + e
    return key


def _digit_offset(nvars: int) -> int:
    """R/2 in every digit: adding it makes each balanced digit non-negative."""
    return _HALF * ((1 << (_SHIFT * nvars)) - 1) // _MASK


def unpack_exponents(key: int, nvars: int) -> ExponentVector:
    """Exponent vector of a packed key."""
    key += _digit_offset(nvars)
    return tuple(
        ((key >> (_SHIFT * s)) & _MASK) - _HALF for s in range(nvars - 1, -1, -1)
    )


def _scaled_power(v: Fraction, e: int, bound: int) -> int:
    """v^e times (pq)^bound for v = p/q; for v = 0, 0^e (e >= 0)."""
    if v:
        return v.numerator ** (bound + e) * v.denominator ** (bound - e)
    return 0 if e else 1


class LaurentPolynomial:
    """Sparse multivariate Laurent polynomial with integer coefficients.

    Terms map packed exponent keys (see ``pack_exponents``; exponents of any
    sign) to non-zero integers.  ``exponent_bound`` is at least every
    |exponent|; products add the bounds and raise OverflowError before an
    exponent could leave the packed range.  Instances are treated as
    immutable values.
    """

    __slots__ = ("nvars", "terms", "exponent_bound")

    def __init__(self, nvars: int, terms: dict[ExponentVector, int] | None = None):
        self.nvars = int(nvars)
        clean: dict[int, int] = {}
        bound = 0
        if terms:
            for exps, coef in terms.items():
                if len(exps) != self.nvars:
                    raise ValueError(
                        f"exponent vector {exps} has wrong length for {self.nvars} variables"
                    )
                if coef != 0:
                    exps = [int(e) for e in exps]
                    clean[pack_exponents(exps)] = int(coef)
                    bound = max([bound, *map(abs, exps)])
        self.terms = clean
        self.exponent_bound = bound

    # constructors
    @classmethod
    def from_packed(cls, nvars: int, terms: dict[int, int], bound: int) -> "LaurentPolynomial":
        """Wrap packed terms without copying them.  The caller guarantees
        non-zero coefficients and bound >= every |exponent|."""
        check_exponent_range(bound)
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out.exponent_bound = bound
        return out

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, c: int, nvars: int) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(1, nvars)

    @classmethod
    def monomial(cls, exps: Sequence[int], nvars: int, coef: int = 1) -> "LaurentPolynomial":
        return cls(nvars, {tuple(exps): coef})

    @classmethod
    def variable(cls, index: int, nvars: int, power: int = 1) -> "LaurentPolynomial":
        """The monomial x_{index+1}^power."""
        exps = [0] * nvars
        exps[index] = power
        return cls.monomial(exps, nvars)

    # predicates
    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable counts differ: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(other, self.nvars)
        return NotImplemented

    # ring operations
    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            new = terms.get(key, 0) + coef
            if new:
                terms[key] = new
            else:
                del terms[key]
        return LaurentPolynomial.from_packed(
            self.nvars, terms, max(self.exponent_bound, other.exponent_bound)
        )

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial.from_packed(
            self.nvars, {k: -c for k, c in self.terms.items()}, self.exponent_bound
        )

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = self.exponent_bound + other.exponent_bound
        check_exponent_range(bound)  # before the loop: no key sum may alias
        terms: dict[int, int] = {}
        get = terms.get
        right = list(other.terms.items())
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        return LaurentPolynomial.from_packed(self.nvars, terms, bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other, self.nvars)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def specialize(self, values: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at non-zero rationals (zero allowed only where no
        negative exponent occurs)."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        for i, v in enumerate(vals):
            if v == 0 and any(
                unpack_exponents(k, self.nvars)[i] < 0 for k in self.terms
            ):
                raise ZeroDivisionError(
                    f"variable x{i + 1} appears with a negative exponent"
                )
        # x^e = p^(B+e) q^(B-e) / (pq)^B for x = p/q != 0 and B = exponent_bound,
        # so the terms sum as ints and one division ends the sum; each key is
        # decoded on its own and each power computed once
        bound = self.exponent_bound
        offset = _digit_offset(self.nvars)
        shifts = [_SHIFT * s for s in range(self.nvars - 1, -1, -1)]
        powers: list[dict[int, int]] = [{} for _ in vals]
        total = 0
        for key, coef in self.terms.items():
            key += offset
            for v, s, cache in zip(vals, shifts, powers):
                e = ((key >> s) & _MASK) - _HALF
                f = cache.get(e)
                if f is None:
                    f = cache[e] = _scaled_power(v, e, bound)
                coef *= f
            total += coef
        scale = 1
        for v in vals:
            if v:
                scale *= (v.numerator * v.denominator) ** bound
        return Fraction(total, scale)

    # canonical text: terms ascending by exponent vector, each rendered as
    # "coef" or "coef * x1^e1 x2^e2" listing only non-zero exponents
    def canonical_text(self) -> str:
        if not self.terms:
            return "0"
        # each key is decoded inline as in unpack_exponents, whose per-call
        # set-up was half the time of this method on large polynomials
        offset = _digit_offset(self.nvars)
        names = [(f"x{i + 1}^", _SHIFT * (self.nvars - 1 - i)) for i in range(self.nvars)]
        pieces = []
        for key in sorted(self.terms):
            coef = self.terms[key]
            key += offset
            factors = " ".join([f"{name}{e}" for name, s in names
                                if (e := ((key >> s) & _MASK) - _HALF)])
            pieces.append(f"{coef} * {factors}" if factors else str(coef))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPolynomial<{self.nvars}>({self.canonical_text()})"


def _kronecker_mul(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """a * b for operands with non-negative coefficients, by Kronecker
    substitution (Harvey, J. Symbolic Comput. 44, 2009).

    Each operand becomes one int with a fixed-width slot per monomial of the
    product's exponent box, so one int multiply forms every coefficient and
    no slot carries into the next.  The box is dense, so this pays only for
    dense products (two characters, or two generating series); sparse ones
    stay with ``*``.  The result equals ``a * b``, exponent bound included.
    """
    if a.nvars != b.nvars:
        raise ValueError(f"variable counts differ: {a.nvars} vs {b.nvars}")
    n = a.nvars
    bound = a.exponent_bound + b.exponent_bound
    check_exponent_range(bound)
    if not a.terms or not b.terms:
        return LaurentPolynomial.from_packed(n, {}, bound)
    if min(a.terms.values()) < 0 or min(b.terms.values()) < 0:
        raise ValueError("Kronecker substitution needs non-negative coefficients")
    exps_a = [unpack_exponents(key, n) for key in a.terms]
    exps_b = [unpack_exponents(key, n) for key in b.terms]
    cols_a, cols_b = list(zip(*exps_a)), list(zip(*exps_b))
    lows_a, lows_b = [min(c) for c in cols_a], [min(c) for c in cols_b]
    # digit i of a slot index is the product's exponent of x_{i+1} above
    # lows_a[i] + lows_b[i]; the first variable is the most significant
    radices = [max(ca) - min(ca) + max(cb) - min(cb) + 1 for ca, cb in zip(cols_a, cols_b)]
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * radices[i + 1]
    # every product coefficient is at most this, so it fits a slot
    top = min(sum(a.terms.values()) * max(b.terms.values()),
              max(a.terms.values()) * sum(b.terms.values()))
    width = max(1, (top.bit_length() + 7) // 8)

    def pack(p: LaurentPolynomial, exps: list[ExponentVector], lows: list[int]) -> int:
        slots = [sum((e - lo) * s for e, lo, s in zip(v, lows, strides)) for v in exps]
        buf = bytearray(width * (max(slots) + 1))
        for slot, coef in zip(slots, p.terms.values()):
            buf[slot * width:(slot + 1) * width] = coef.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    product = pack(a, exps_a, lows_a) * pack(b, exps_b, lows_b)
    data = product.to_bytes((product.bit_length() + 7) // 8, "little")
    keys = [0]
    for i, radix in enumerate(radices):
        unit = 1 << (_SHIFT * (n - 1 - i))
        low = lows_a[i] + lows_b[i]
        keys = [key + (low + d) * unit for key in keys for d in range(radix)]
    coefs = (int.from_bytes(data[j:j + width], "little") for j in range(0, len(data), width))
    terms = {key: coef for key, coef in zip(keys, coefs) if coef}
    return LaurentPolynomial.from_packed(n, terms, bound)


# --- complete homogeneous symmetric functions -------------------------------


def ordinary_variables(n: int) -> list[ExponentVector]:
    """x_1, ..., x_n as exponent vectors."""
    out = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        out.append(tuple(e))
    return out


def symplectic_variables(n: int) -> list[ExponentVector]:
    """x_1, 1/x_1, ..., x_n, 1/x_n."""
    out = []
    for i in range(n):
        for sign in (1, -1):
            e = [0] * n
            e[i] = sign
            out.append(tuple(e))
    return out


def odd_orthogonal_variables(n: int) -> list[ExponentVector]:
    """x_1, 1/x_1, ..., x_n, 1/x_n, 1."""
    return symplectic_variables(n) + [(0,) * n]


def _h_table(monomials, nvars, top):
    """Shared h_0..h_top evaluations with total indexing (h_k = 0 for k < 0)."""
    table = [LaurentPolynomial.one(nvars)] + [
        LaurentPolynomial.zero(nvars) for _ in range(max(top, 0))
    ]
    for mono in monomials:
        m = LaurentPolynomial.monomial(mono, nvars)
        for d in range(1, len(table)):
            table[d] = table[d] + m * table[d - 1]
    zero = LaurentPolynomial.zero(nvars)

    def h(k: int) -> LaurentPolynomial:
        if k < 0:
            return zero
        if k >= len(table):
            raise IndexError(f"h_{k} beyond precomputed range {len(table) - 1}")
        return table[k]

    return h


# --- determinants over the polynomial ring ----------------------------------


def determinant(mat: list[list[LaurentPolynomial]], nvars: int) -> LaurentPolynomial:
    """Fraction-free determinant by cofactor expansion along the first column.

    Zero entries are skipped, so the banded Jacobi-Trudi matrices expand
    cheaply: on characters up to 8x8 this ran 18x to 300x faster than
    fraction-free Bareiss elimination with exact polynomial division.
    """
    size = len(mat)
    if size == 0:
        return LaurentPolynomial.one(nvars)
    if size == 1:
        return mat[0][0]
    total = LaurentPolynomial.zero(nvars)
    for i in range(size):
        if not mat[i][0]:
            continue
        minor = [row[1:] for k, row in enumerate(mat) if k != i]
        cof = mat[i][0] * determinant(minor, nvars)
        total = total + (cof if i % 2 == 0 else -cof)
    return total


# --- characters -------------------------------------------------------------

SCHUR = "schur"
ODD_ORTHOGONAL = "odd_orthogonal"


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(lam)


def character_jt(family: str, lam, n: int) -> LaurentPolynomial:
    """Character by determinant of complete homogeneous functions.

    schur:          det[ h_{l_i - i + j}(x) ]
    symplectic:     det[ h_{l_i - i + j}(x, 1/x) + h_{l_i - i - j + 2}(x, 1/x) ],
                    but h_{l_i - i + 1}(x, 1/x) alone in column j = 1
    odd_orthogonal: det[ h_{l_i - i + j}(x, 1/x, 1) - h_{l_i - i - j}(x, 1/x, 1) ]

    with i, j counted from 1.  The symplectic form is Koike and Terada's
    (J. Algebra 107, 1987), which needs no halving.
    """
    lam = _as_partition(lam)
    ell = len(lam)
    if ell > n:
        raise ValueError(f"shape {lam!r} needs more than {n} variables")
    if ell == 0:
        if family not in (SCHUR, SYMPLECTIC, ODD_ORTHOGONAL):
            raise ValueError(f"unknown character family {family!r}")
        return LaurentPolynomial.one(n)  # the empty determinant
    if family == SCHUR:
        mono = ordinary_variables(n)
        h = _h_table(mono, n, lam[0] + ell)
        mat = [[h(lam[i] - i + j) for j in range(ell)] for i in range(ell)]
        return determinant(mat, n)
    if family == SYMPLECTIC:
        mono = symplectic_variables(n)
        h = _h_table(mono, n, lam[0] + ell + 1)
        mat = [
            [h(lam[i] - i + j) + h(lam[i] - i - j) if j else h(lam[i] - i)
             for j in range(ell)]
            for i in range(ell)
        ]
        return determinant(mat, n)
    if family == ODD_ORTHOGONAL:
        mono = odd_orthogonal_variables(n)
        h = _h_table(mono, n, lam[0] + ell)
        mat = [
            [h(lam[i] - i + j) - h(lam[i] - i - j - 2) for j in range(ell)]
            for i in range(ell)
        ]
        return determinant(mat, n)
    raise ValueError(f"unknown character family {family!r}")


def _tableau_sum(family: str, n: int, shapes: Iterable[Partition]) -> LaurentPolynomial:
    """Sum of one family's characters in n variables over the given shapes.

    Row r of a pattern adds cells weighing x_r (ordinary), or x_k and 1/x_k
    in rows 2k-1 and 2k (symplectic), so no exponent passes the shape's first
    part; so_lam is the sum of the sp_nu with lam/nu a vertical strip (Proctor).

    The walk climbs one level per variable x_k, the one or two rows whose
    cells weigh it.  It memoizes F_k[mu], the series of the chains
    empty < ... < mu that end at the top of level k, as
    F_k[mu] = sum over kappa of F_{k-1}[kappa] * P(x_k), where P counts the
    chains kappa < ... < mu inside level k by the power of x_k they add:
    x^(|mu| - |kappa|), or x^(2|nu| - |kappa| - |mu|) over the nu with
    kappa < nu < mu.  The last level starts from every requested shape at
    once, so each kappa below it is multiplied once for the whole sum.
    """
    if family not in (SCHUR, SYMPLECTIC, ODD_ORTHOGONAL):
        raise ValueError(f"unknown character family {family!r}")
    pattern = GTPattern if family == SCHUR else SpGTPattern
    # the rows of level k, top first, each as (the row below it, counted up
    # from the top row of level k - 1; the sign of the power of x_k that the
    # row's cells add)
    rows = [(0, 1)] if family == SCHUR else [(1, -1), (0, 1)]
    steps = [pack_exponents(e) for e in ordinary_variables(n)]

    def level(tops: dict[Partition, int], k: int) -> dict[int, int]:
        """Packed series of the sum over mu of tops[mu] * F_k[mu], F_k[mu]
        being the series of the chains that reach mu at the top of level k."""
        if k == 0:
            count = sum(tops.values())  # only the empty partition is here
            return {0: count} if count else {}
        # polys[kappa][e]: chains from a top down to kappa at the foot of
        # level k that add x_k^e, weighted by tops
        polys = {top: {0: c} for top, c in tops.items()}
        for below, sign in rows:
            max_len = pattern.row_length(len(rows) * (k - 1) + below)
            lower: dict[Partition, dict[int, int]] = {}
            for top, poly in polys.items():
                size = top.size()
                for kappa in _interlacings_below(top, max_len):
                    d = sign * (size - kappa.size())
                    counts = lower.setdefault(kappa, {})
                    for e, c in poly.items():
                        counts[e + d] = counts.get(e + d, 0) + c
            polys = lower
        # gather the coefficient of each power of x_k first: F_{k-1} holds
        # no x_k, so the shifted sums below share no key
        by_power: dict[int, dict[int, int]] = {}
        for kappa, poly in polys.items():
            prev = table(kappa, k - 1)
            for e, c in poly.items():
                acc = by_power.get(e)
                if acc is None:
                    by_power[e] = {key: c * coef for key, coef in prev.items()}
                    continue
                get = acc.get
                for key, coef in prev.items():
                    acc[key] = get(key, 0) + c * coef
        step = steps[k - 1]
        out: dict[int, int] = {}
        for e, acc in by_power.items():
            shift = e * step
            out.update({key + shift: coef for key, coef in acc.items()})
        return out

    @functools.cache
    def table(mu: Partition, k: int) -> dict[int, int]:
        return level({mu: 1}, k)

    tops: dict[Partition, int] = {}
    bound = 0
    for lam in shapes:
        bound = max(bound, lam[0])
        for nu in _dual_subpartitions(lam) if family == ODD_ORTHOGONAL else (lam,):
            tops[nu] = tops.get(nu, 0) + 1
    return LaurentPolynomial.from_packed(n, level(tops, n), bound)


def character_tab(family: str, lam, n: int) -> LaurentPolynomial:
    """Character as the generating series of the patterns of the given shape."""
    lam = _as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"shape {lam!r} needs more than {n} variables")
    return _tableau_sum(family, n, [lam])


# --- bounded sums and the product identity ----------------------------------


def box_partitions(
    u: int, n: int, even_rows_only: bool = False
) -> Iterator[Partition]:
    """Partitions inside the u-by-n box, ascending colexicographically.

    Colex compares the zero-padded n-tuple (l_1, ..., l_n) from the right.
    """
    if u < 0 or n < 0:
        raise ValueError("box dimensions must be non-negative")
    # increasing tuples come out in lex order, so their reversals are in colex
    parts = range(0, u + 1, 2 if even_rows_only else 1)
    for c in itertools.combinations_with_replacement(parts, n):
        yield Partition(c[::-1])


def bounded_character_sum(
    family: str, u: int, n: int, even_rows_only: bool = False
) -> LaurentPolynomial:
    """Sum of one family's characters over the u-by-n box, optionally
    over even-row shapes only."""
    return _tableau_sum(family, n, box_partitions(u, n, even_rows_only))


def okada_product(u: int, n: int) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Both sides of the bounded symplectic-sum product identity.

    Left: sum of symplectic characters over shapes with first part <= u.
    Right: sp over the floor(u/2)^n rectangle times the odd orthogonal
    character over the ceil(u/2)^n rectangle.
    """
    lhs = bounded_character_sum(SYMPLECTIC, u, n)
    s, t = u // 2, (u + 1) // 2
    rhs = _kronecker_mul(character_tab(SYMPLECTIC, Partition([s] * n), n),
                         character_tab(ODD_ORTHOGONAL, Partition([t] * n), n))
    return lhs, rhs


def product_of_variables(n: int, power: int = 1) -> LaurentPolynomial:
    """(x_1 x_2 ... x_n)^power as a monomial."""
    return LaurentPolynomial.monomial((power,) * n, n)
