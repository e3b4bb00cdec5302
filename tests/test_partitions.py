import itertools

import pytest

from lppqs.characters import character_jt
from lppqs.partitions import (
    EMPTY,
    GTPattern,
    Partition,
    SpGTPattern,
    _chains_to,
    _dual_subpartitions,
    enumerate_patterns,
    gt_type,
    interlaces,
)


def test_partition_normalization_and_indexing():
    p = Partition([2, 1, 0, 0])
    assert p == Partition([2, 1])
    assert len(p) == 2
    assert p.size() == 3
    assert p[0] == 2 and p[1] == 1 and p[5] == 0
    assert Partition([]) == EMPTY
    assert not EMPTY
    assert p == (2, 1) and p == [2, 1] and p == [2, 1, 0]
    # a tuple is equal only to the parts tuple, which shares the hash
    assert p != (2, 1, 0)
    assert {p} & {(2, 1, 0)} == set() and {p} & {(2, 1)} == {p}
    assert {(2, 1): "a"}[p] == "a" and (2, 1, 0) not in {p: "b"}
    assert Partition([1]) != (1, 2)  # not a partition: unequal, no error
    assert Partition([1]) != (1, -1)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


@pytest.mark.parametrize(
    "mu, lam, expected",
    [
        ((), (), True),
        ((1,), (2, 1), True),
        ((1,), (3, 2), False),
        ((2, 1), (2, 1), True),
        ((3,), (2,), False),
    ],
)
def test_interlaces_cases(mu, lam, expected):
    assert interlaces(Partition(mu), Partition(lam)) is expected


def test_gt_type_examples():
    assert gt_type(GTPattern([[0], [0, 0], [0, 0, 0]])) == (0, 0, 0)
    assert gt_type(GTPattern([[1], [2, 1]])) == (1, 2)
    assert gt_type(SpGTPattern([[2], [2], [2, 1], [2, 1]])) == (2, 0, 1, 0)


def test_pattern_validation():
    with pytest.raises(ValueError):
        GTPattern([[1], [0, 0]])  # 1 does not fit between 0 and 0
    with pytest.raises(ValueError):
        GTPattern([[1, 2]])  # wrong row length
    with pytest.raises(ValueError):
        SpGTPattern([[1], [1], [1, 2]])  # odd number of rows
    with pytest.raises(ValueError):
        SpGTPattern([[1], [2], [2, 0], [2, 1], [3, 1], [3, 2, 1]])


def test_pattern_text_round_trips():
    assert GTPattern([[1], [2, 0]]).to_text() == "1\n2 0\n"
    for kind, cls in (("ordinary", GTPattern), ("symplectic", SpGTPattern)):
        for n in (1, 2, 3):
            height = n if kind == "ordinary" else 2 * n
            for parts in itertools.combinations_with_replacement((2, 1, 0), n):
                for z in enumerate_patterns(kind, height, Partition(parts)):
                    assert cls.from_text(z.to_text()) == z
    for text in ("", "\n", " \n\n"):
        with pytest.raises(ValueError, match="^empty pattern file$"):
            GTPattern.from_text(text)


def test_enumerate_single_row_forced():
    for k in (0, 1, 5):
        pats = list(enumerate_patterns("ordinary", 1, Partition([k] if k else [])))
        assert len(pats) == 1


def test_enumerate_small_cases():
    pats = list(enumerate_patterns("ordinary", 2, Partition([1])))
    assert [p.rows for p in pats] == [((0,), (1, 0)), ((1,), (1, 0))]
    sp = list(enumerate_patterns("symplectic", 2, Partition([1])))
    assert len(sp) == 2
    assert len(list(enumerate_patterns("ordinary", 2, Partition([2, 1])))) == 2


def test_enumerate_rejects_long_shapes():
    with pytest.raises(ValueError):
        list(enumerate_patterns("ordinary", 2, Partition([1, 1, 1])))
    with pytest.raises(ValueError):
        list(enumerate_patterns("symplectic", 2, Partition([1, 1])))
    with pytest.raises(ValueError):
        list(enumerate_patterns("odd_orthogonal", 2, Partition([1])))
    # checked at call time, before the stream is read
    with pytest.raises(ValueError):
        enumerate_patterns("odd_orthogonal", 2, Partition([1]))
    with pytest.raises(ValueError):
        enumerate_patterns("symplectic", 3, Partition([1]))
    with pytest.raises(ValueError):
        enumerate_patterns("ordinary", 2, Partition([1, 1, 1]))


def test_enumerate_emits_sorted_streams():
    pats = list(enumerate_patterns("ordinary", 3, Partition([2, 1])))
    keys = [tuple(x for row in p.rows for x in row) for p in pats]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_type_nonnegative_and_sums_to_size():
    for kind, height, shape in [
        ("ordinary", 3, Partition([2, 1])),
        ("symplectic", 4, Partition([2, 1])),
    ]:
        for z in enumerate_patterns(kind, height, shape):
            ty = gt_type(z)
            assert all(v >= 0 for v in ty)
            assert sum(ty) == shape.size()


def _box_3x3():
    out = set()
    for a in range(4):
        for b in range(a + 1):
            for c in range(b + 1):
                out.add(Partition([x for x in (a, b, c) if x]))
    return sorted(out, key=lambda p: p.parts)


def test_pattern_counts_match_principal_specialization():
    # |GT_n(lam)| = s_lam(1, ..., 1) and |SpGT_2n(lam)| = sp_lam at all ones
    for n in (1, 2, 3):
        for lam in _box_3x3():
            if len(lam) > n:
                continue
            count = len(list(enumerate_patterns("ordinary", n, lam)))
            assert count == character_jt("schur", lam, n).specialize([1] * n)
            sp_count = len(list(enumerate_patterns("symplectic", 2 * n, lam)))
            assert sp_count == character_jt("symplectic", lam, n).specialize([1] * n)


def test_oot_count_matches_determinant():
    # so_lam counts the symplectic chains up to every nu with lam/nu a
    # vertical strip, so a strip may stack several cells in one column
    for n in (1, 2):
        lengths = [SpGTPattern.row_length(i) for i in range(1, 2 * n + 1)]
        for lam in _box_3x3():
            if len(lam) > n:
                continue
            count = sum(1 for nu in _dual_subpartitions(lam) for _ in _chains_to(nu, lengths))
            assert count == character_jt("odd_orthogonal", lam, n).specialize([1] * n)
