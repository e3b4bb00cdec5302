import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import lpp_time_by_paths
from lppqs.characters import character_tab
from lppqs.lpp import KINDS, Filling, Geometry, degree_series, lpp_time
from lppqs.partitions import Partition
import lppqs.probability as probability
from lppqs.probability import (
    _CHUNK,
    _rectangle_character,
    GeometricSpec,
    exact_cdf,
    factorization_report,
    normalization_constant,
    sample_lpp,
    sample_passage_times,
    scaling_constants,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# --- the redraw oracle: one fresh stream per square, drawn in one call ------


def _square_stream(seed, kind, square_index):
    """Philox keyed by (seed, geometry_code * 2^48 + square_index)."""
    mask = (1 << 64) - 1
    code = KINDS.index(kind) + 1
    key = np.array([seed & mask, ((code << 48) | square_index) & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _geometric_draws(gen, p, count):
    """floor(log U / log p), guarded at U = 0."""
    u = np.maximum(gen.random(count), np.finfo(np.float64).tiny)
    return np.floor(np.log(u) / math.log(p)).astype(np.int64)


def test_exact_cdf_closed_forms_point_to_point():
    for y in (HALF, THIRD):
        for u in range(0, 9):
            assert exact_cdf(Geometry("p2pr", 1), u, y) == 1 - y ** (u + 1)


def test_exact_cdf_closed_forms_point_to_line():
    for y in (HALF, THIRD):
        for v in range(0, 9):
            assert exact_cdf(Geometry("p2l", 1), v, y) == 1 - y ** (2 * (v + 1))


def test_exact_cdf_quarter_square_value():
    assert exact_cdf(Geometry("p2hlr", 1), 2, HALF) == Fraction(105, 128)
    # cross-check against the direct normalization-times-series route
    norm = normalization_constant(Geometry("p2hlr", 1), HALF)
    assert norm == (1 - HALF) * (1 - HALF**2)


@pytest.mark.parametrize("kind", KINDS)
def test_normalization_constant_is_the_product_over_squares(kind):
    for n in range(1, 8):
        geo = Geometry(kind, n)
        for y in (HALF, Fraction(7, 10), THIRD):
            per_square = Fraction(1)
            for i, j in geo.squares():
                per_square *= 1 - y ** sum(geo.variable_exponent(i, j))
            assert normalization_constant(geo, y) == per_square


def test_exact_cdf_monotone_and_saturating():
    prev = Fraction(0)
    for u in range(0, 11):
        cur = exact_cdf(Geometry("p2pr", 1), u, HALF)
        assert cur >= prev
        prev = cur
    assert prev > Fraction(99, 100)
    # decreasing the parameter increases every CDF value
    for u in range(0, 5):
        assert exact_cdf(Geometry("p2l", 2), u, THIRD) >= exact_cdf(
            Geometry("p2l", 2), u, HALF
        )


def test_exact_cdf_rejects_bad_parameter():
    with pytest.raises(ValueError):
        exact_cdf(Geometry("p2pr", 1), 2, Fraction(3, 2))


def test_factorization_exact():
    for n in (1, 2):
        for y in (HALF, THIRD):
            rep = factorization_report(n, y, "exact", u_values=range(0, 9, 2))
            assert rep["all_equal"]
            assert len(rep["checks"]) == 5
            assert all(c["lhs"] == c["rhs"] for c in rep["checks"])


# (n, u) ranges where the walk is cheap; together about 0.5 s
ENUMERATION_RANGES = {"p2hlr": (4, 8), "p2pr": (5, 8), "p2l": (5, 4)}


@pytest.mark.parametrize("kind", KINDS)
def test_exact_cdf_matches_enumeration(kind):
    n_max, u_max = ENUMERATION_RANGES[kind]
    for n in range(1, n_max + 1):
        geo = Geometry(kind, n)
        for u in range(u_max + 1):
            series = degree_series(geo, u)
            for y in (HALF, Fraction(7, 10), THIRD):
                expected = normalization_constant(geo, y) * series.specialize([y])
                assert exact_cdf(geo, u, y) == expected, (n, u, y)


@pytest.mark.parametrize("family", ["symplectic", "odd_orthogonal"])
def test_rectangle_character_matches_tableau_sum(family):
    for n in (1, 2, 3):
        for s in range(4):
            character = character_tab(family, Partition([s] * n), n)
            for y in (HALF, Fraction(7, 10), THIRD):
                assert _rectangle_character(family, n, s, y) == character.specialize(
                    [y] * n
                ), (n, s, y)


def test_exact_factorization_reads_the_enumeration(monkeypatch):
    # one coefficient off in the walk's series must show as a failed check
    def off_by_one(geometry, bound, **kwargs):
        series = degree_series(geometry, bound, **kwargs)
        top = max(series.terms)
        series.terms[top] += 1
        return series

    assert factorization_report(2, HALF, "exact", u_values=[4])["all_equal"]
    monkeypatch.setattr(probability, "degree_series", off_by_one)
    rep = factorization_report(2, HALF, "exact", u_values=[4])
    assert not rep["all_equal"]
    assert rep["checks"][0]["lhs"] != rep["checks"][0]["rhs"]


def test_factorization_rejects_odd_u():
    with pytest.raises(ValueError):
        factorization_report(1, HALF, "exact", u_values=[3])


def test_scaling_constants_values():
    c = scaling_constants(0.25)
    assert c.c1 == pytest.approx(2.0, abs=1e-15)
    assert c.c2 == pytest.approx(0.25 ** (1 / 6) * 1.5 ** (1 / 3) / 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        scaling_constants(1.0)


def test_scaling_constants_monotone():
    grid = [k / 10 for k in range(1, 10)]
    cs = [scaling_constants(q) for q in grid]
    for a, b in zip(cs, cs[1:]):
        assert b.c1 > a.c1
        assert b.c2 > a.c2


def test_spec_validation():
    with pytest.raises(ValueError):
        GeometricSpec(Fraction(3, 2), Geometry("p2pr", 1), 0)
    with pytest.raises(ValueError):
        sample_passage_times(GeometricSpec(HALF, Geometry("p2pr", 1), 0), 0)


def test_sampling_is_deterministic():
    spec = GeometricSpec(HALF, Geometry("p2hlr", 3), seed=11)
    r1 = sample_lpp(spec, 3000)
    r2 = sample_lpp(spec, 3000)
    assert r1.to_json() == r2.to_json()
    assert r1.cdf == r2.cdf
    # a different seed must change the samples
    r3 = sample_lpp(GeometricSpec(HALF, Geometry("p2hlr", 3), seed=12), 3000)
    assert r3.cdf != r1.cdf


def test_sampled_times_are_passage_times_of_the_drawn_fillings():
    # redraw each square's stream and rebuild the fillings the sampler saw:
    # every sample of a small run, and a few on each side of a chunk boundary.
    # At y = 0.9999999999999999 the weights are near 2^52 and the times pass
    # 2^53, which a float64 frontier would round.
    seed = 4
    small = (30, range(30))
    boundary = (_CHUNK + 5, [*range(5), *range(_CHUNK - 5, _CHUNK + 5)])
    for y, sizes in ((0.6, (1, 2, 4)), (0.9999999999999999, (2,))):
        for kind in KINDS:
            for n in sizes:
                geo = Geometry(kind, n)
                squares = geo.squares()
                for samples, checked in (small, boundary):
                    draws = [
                        _geometric_draws(
                            _square_stream(seed, kind, s),
                            y ** sum(geo.variable_exponent(*sq)),
                            samples,
                        )
                        for s, sq in enumerate(squares)
                    ]
                    times = sample_passage_times(GeometricSpec(y, geo, seed), samples)
                    assert times.dtype == np.int64
                    for t in checked:
                        f = Filling(geo, {sq: int(d[t]) for sq, d in zip(squares, draws)})
                        assert times[t] == lpp_time(f) == lpp_time_by_paths(f), (kind, n, y, t)


def test_sampled_times_do_not_depend_on_the_worker_count(monkeypatch):
    # three workers on fewer cores, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind in KINDS:
            for n in range(1, 5):
                spec = GeometricSpec(0.6, Geometry(kind, n), seed=8)
                for samples in (1, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
                    runs = []
                    for workers in (1, 2, 3):
                        monkeypatch.setattr(probability, "_cpu_count", lambda: workers)
                        runs.append(sample_passage_times(spec, samples))
                    assert runs[0].dtype == np.int64
                    assert all(np.array_equal(runs[0], r) for r in runs[1:]), (kind, n, samples)
    finally:
        sys.setswitchinterval(interval)


def test_chunks_of_a_thread_that_cannot_start_are_drawn_by_the_caller(monkeypatch):
    spec = GeometricSpec(0.6, Geometry("p2hlr", 3), seed=2)
    expected = sample_passage_times(spec, 2 * _CHUNK + 3)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(probability, "_cpu_count", lambda: 3)
    with monkeypatch.context() as m:
        m.setattr(threading.Thread, "start", no_thread)
        times = sample_passage_times(spec, 2 * _CHUNK + 3)
    assert np.array_equal(times, expected)


def test_worker_failure_reaches_the_caller(monkeypatch, capsys):
    # a worker other than the calling thread runs out of memory; nothing is
    # allocated for it
    sample_chunks = probability._sample_chunks

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 1.00 TiB")
        sample_chunks(*args)

    monkeypatch.setattr(probability, "_cpu_count", lambda: 2)
    monkeypatch.setattr(probability, "_sample_chunks", failing)
    before = threading.active_count()
    spec = GeometricSpec(HALF, Geometry("p2pr", 2), seed=1)
    with pytest.raises(MemoryError):
        sample_passage_times(spec, 2 * _CHUNK)
    assert threading.active_count() == before

    from lppqs.cli import main

    argv = ["simulate", "--geometry", "p2pr", "--n", "2", "--samples", str(2 * _CHUNK),
            "--y", "0.5"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: Unable to allocate 1.00 TiB\n")
    assert threading.active_count() == before


def test_report_shape():
    spec = GeometricSpec(HALF, Geometry("p2l", 2), seed=5)
    rep = sample_lpp(spec, 2000)
    data = json.loads(rep.to_json())
    assert set(data) == {
        "geometry", "n", "q", "seed", "samples", "cdf", "mean", "variance", "normalized",
    }
    probs = [p for _, p in data["cdf"]]
    assert probs == sorted(probs)
    assert probs[-1] == 1.0
    assert data["q"] == 0.25
    csv = rep.to_csv()
    assert csv.startswith("value,prob\n")
    assert len(csv.strip().splitlines()) == len(probs) + 1


def test_monte_carlo_matches_exact_point():
    spec = GeometricSpec(HALF, Geometry("p2pr", 1), seed=7)
    rep = sample_lpp(spec, 100_000)
    assert abs(rep.cdf_at(3) - 15 / 16) <= 0.01


def test_monte_carlo_within_dkw_band():
    # 99% band: eps = sqrt(log(2/alpha) / (2N)); checked for both small sizes
    n_samples = 40_000
    eps = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))
    for kind in ("p2hlr", "p2pr", "p2l"):
        for n in (1, 2):
            spec = GeometricSpec(HALF, Geometry(kind, n), seed=3)
            rep = sample_lpp(spec, n_samples)
            for u in range(0, 7):
                exact = float(exact_cdf(Geometry(kind, n), u, HALF))
                assert abs(rep.cdf_at(u) - exact) <= eps, (kind, n, u)


def test_exact_cdf_within_dkw_band_past_the_walk():
    # n = 12 is far past what enumeration reaches; the 99% DKW band holds
    # between the 5% and 95% quantiles
    n_samples = 40_000
    eps = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))
    y = Fraction(7, 10)
    for kind in KINDS:
        geo = Geometry(kind, 12)
        rep = sample_lpp(GeometricSpec(0.7, geo, seed=3), n_samples)
        low = next(u for u, p in rep.cdf if p >= 0.05)
        high = next(u for u, p in rep.cdf if p >= 0.95)
        for u in range(low, high + 1):
            exact = float(exact_cdf(geo, u, y))
            assert abs(rep.cdf_at(u) - exact) <= eps, (kind, u)


def test_tiny_parameter_concentrates_at_zero():
    spec = GeometricSpec(Fraction(1, 1000), Geometry("p2hlr", 2), seed=3)
    rep = sample_lpp(spec, 1000)
    assert rep.cdf_at(0) >= 0.99


def test_factorization_monte_carlo_small():
    rep = factorization_report(5, 0.5, "monte_carlo", n_samples=20_000, seed=9)
    assert rep["sup_distance"] <= 0.02
    assert rep["samples"] == 20_000
