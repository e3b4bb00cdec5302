"""Partitions, interlacing relations and Gelfand-Tsetlin patterns.

Two pattern kinds are supported:

* ordinary   -- triangular patterns of height n (row i has i entries);
* symplectic -- half-triangular patterns of height 2n (row i has ceil(i/2)
                entries).

A pattern is the same data as its chain of interlacing partitions
(:meth:`Pattern.to_chain`).

Everything here is an immutable value; all functions are pure.
"""

from __future__ import annotations

import itertools
from operator import ge
from typing import Iterable, Iterator, Sequence


class Partition:
    """Weakly decreasing positive integers; trailing zeros are dropped.

    Indexing is 0-based and total: ``p[i]`` is 0 for every i >= len(p).
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(map(int, parts))
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        if not all(map(ge, ps, ps[1:])):
            raise ValueError(f"parts must be weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"parts must be non-negative: {ps}")
        self.parts = ps

    def __len__(self) -> int:
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("partition parts are indexed from 0")
        return self.parts[i] if i < len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            # only the parts tuple itself, which has the same hash
            return self.parts == other
        if isinstance(other, list):
            # lists are unhashable: equal iff these parts followed by zeros
            k = len(self.parts)
            return tuple(other[:k]) == self.parts and not any(other[k:])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def pad(self, length: int) -> tuple[int, ...]:
        """Parts padded with zeros to the given length."""
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self!r} to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def has_even_rows(self) -> bool:
        return all(p % 2 == 0 for p in self.parts)


EMPTY = Partition()


def interlaces(mu: Partition, lam: Partition) -> bool:
    """Whether ``mu`` interlaces upwards with ``lam`` (mu < lam):
    lam_i >= mu_i >= lam_{i+1} for all i.

    Parts are positive, so past the length test only the pairs inside both
    parts tuples need comparing."""
    m, la = mu.parts, lam.parts
    return (
        len(m) <= len(la) <= len(m) + 1
        and all(map(ge, la, m))
        and all(map(ge, m, la[1:]))
    )


def _chain_from_rows(rows: Sequence[Sequence[int]]) -> list[Partition]:
    chain = [EMPTY]
    for row in rows:
        chain.append(Partition(row))
    return chain


class Pattern:
    """Interlacing integer array; row i has row_length(i) entries.

    Equivalent to the chain of partitions empty = l(0) < l(1) < ... < l(h)
    read off row by row: row i, zero-padded, is l(i), so l(i) has at most
    row_length(i) parts.
    """

    __slots__ = ("rows",)

    @staticmethod
    def row_length(i: int) -> int:
        raise NotImplementedError

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        for i, row in enumerate(rows, start=1):
            want = self.row_length(i)
            if len(row) != want:
                raise ValueError(f"row {i} must have {want} entries, got {row}")
            if row[-1] < 0:
                raise ValueError(f"entries must be non-negative: {row}")
        chain = _chain_from_rows(rows)
        for lo, hi in zip(chain, chain[1:]):
            if not interlaces(lo, hi):
                raise ValueError(f"rows do not interlace: {lo!r} vs {hi!r}")
        self.rows = rows

    def height(self) -> int:
        return len(self.rows)

    def shape(self) -> Partition:
        return Partition(self.rows[-1]) if self.rows else EMPTY

    def to_chain(self) -> list[Partition]:
        return _chain_from_rows(self.rows)

    @classmethod
    def from_chain(cls, chain: Sequence[Partition]):
        """Build from [empty, l(1), ..., l(h)] (leading empty partition)."""
        if not chain or chain[0] != EMPTY:
            raise ValueError("chain must start with the empty partition")
        return cls([lam.pad(cls.row_length(i)) for i, lam in enumerate(chain) if i > 0])

    # plain text: one line per row, row 1 first, entries separated by spaces
    def to_text(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.rows) + "\n"

    @classmethod
    def from_text(cls, text: str):
        rows = [[int(tok) for tok in line.split()] for line in text.strip().splitlines()]
        if not rows:
            raise ValueError("empty pattern file")
        return cls(rows)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(map(list, self.rows))})"


class GTPattern(Pattern):
    """Triangular pattern of height n; row i has i entries."""

    __slots__ = ()

    @staticmethod
    def row_length(i: int) -> int:
        return i


class SpGTPattern(Pattern):
    """Half-triangular pattern of height 2n; row i has ceil(i/2) entries."""

    __slots__ = ()

    @staticmethod
    def row_length(i: int) -> int:
        return (i + 1) // 2

    def __init__(self, rows: Sequence[Sequence[int]]):
        if len(rows) % 2 != 0:
            raise ValueError("a symplectic pattern has an even number of rows")
        super().__init__(rows)

    def letters(self) -> int:
        """Number n of base alphabet letters (height = 2n)."""
        return len(self.rows) // 2


def gt_type(z: Pattern) -> tuple[int, ...]:
    """Row-sum increments of a pattern; length = height, entries >= 0."""
    sums = [0] + [sum(row) for row in z.rows]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


# --- enumeration ------------------------------------------------------------

ORDINARY = "ordinary"
SYMPLECTIC = "symplectic"


def _interlacings_below(lam: Partition, max_len: int) -> Iterator[Partition]:
    """All mu < lam with at most max_len parts, in lexicographic order."""
    if len(lam) > max_len + 1:
        return
    ranges = (range(lam[j + 1], lam[j] + 1) for j in range(min(len(lam), max_len)))
    for parts in itertools.product(*ranges):
        yield Partition(parts)


def _chains_to(lam: Partition, lengths: Sequence[int]) -> Iterator[list[Partition]]:
    """Chains empty < l(1) < ... < l(h) = lam with len(l(i)) <= lengths[i-1]."""
    h = len(lengths)
    if h == 0:
        if lam == EMPTY:
            yield [EMPTY]
        return
    if len(lam) > lengths[-1]:
        return

    def walk(i: int, top: Partition) -> Iterator[list[Partition]]:
        if i == 1:
            if interlaces(EMPTY, top):
                yield [EMPTY, top]
            return
        for mu in _interlacings_below(top, lengths[i - 2]):
            for head in walk(i - 1, mu):
                yield head + [top]

    yield from walk(h, lam)


def _dual_subpartitions(lam: Partition) -> Iterator[Partition]:
    """All nu with nu <' lam (lam/nu a vertical strip), lam first, in
    decreasing lexicographic order."""
    for drops in itertools.product((0, 1), repeat=len(lam)):
        parts = [p - d for p, d in zip(lam, drops)]
        if all(a >= b for a, b in zip(parts, parts[1:])):
            yield Partition(parts)


def enumerate_patterns(kind: str, height: int, shape: Partition) -> Iterator[Pattern]:
    """All patterns of the given kind, height and shape.

    height counts rows: n for ordinary, 2n for symplectic.  The stream is
    sorted lexicographically on the row-major entry vector, so its order is
    stable.  The arguments are checked when the function is called, not
    when the stream is first read.
    """
    shape = shape if isinstance(shape, Partition) else Partition(shape)
    if kind not in (ORDINARY, SYMPLECTIC):
        raise ValueError(f"unknown pattern kind {kind!r}")
    if kind == SYMPLECTIC and height % 2 != 0:
        raise ValueError(f"{kind} height must be even (2n rows)")
    cls = GTPattern if kind == ORDINARY else SpGTPattern
    if len(shape) > cls.row_length(height):
        raise ValueError(f"shape {shape!r} too long for height {height}")
    lengths = [cls.row_length(i) for i in range(1, height + 1)]
    out = [cls.from_chain(chain) for chain in _chains_to(shape, lengths)]
    out.sort(key=lambda z: tuple(x for row in z.rows for x in row))
    return iter(out)
