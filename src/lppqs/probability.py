"""Geometric-weight randomization: exact CDFs, sampling, and KPZ scaling.

Weights are independent geometric random variables, Prob(X = k) = (1-p) p^k,
with p the product of the square's row and column parameters at x_i = y:
p = y^d for the square's Geometry.degree d, so p = y^2 off the reflecting
diagonal and p = y on it (q := y^2).

Exact CDFs are rectangle characters at x_1 = ... = x_n = y, times the
total normalization prod_squares (1 - p); everything stays rational.
Sampling is vectorized and fully deterministic: the stream of square s of a
geometry is Philox keyed by (seed, geometry_code * 2^48 + s), and weights
come from the closed-form inverse CDF floor(log U / log p) with a guard at
U = 0.  Sample t of square s takes U from double t mod 4 of the stream's
Philox block t // 4.  Philox is counter-based, so any run of samples can be
drawn on its own: samples are cut into fixed chunks drawn on every CPU the
process may run on, and the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .lpp import KINDS, Geometry, degree_series

_GEOMETRY_CODE = {kind: idx + 1 for idx, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class GeometricSpec:
    """Geometric-weight model: y in (0, 1) is the common value of every x_i."""

    y: Fraction | float
    geometry: Geometry
    seed: int

    def __post_init__(self):
        if not 0 < self.y < 1:
            raise ValueError("y must lie strictly between 0 and 1")
        # the seed is the first Philox key word, 64 bits wide
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must lie between 0 and 2**64 - 1")

    @property
    def q(self) -> Fraction | float:
        return self.y * self.y


@dataclass(frozen=True)
class ScalingConstants:
    """Law-of-large-numbers speed c1 and cube-root fluctuation scale c2."""

    c1: float
    c2: float


def scaling_constants(q: float) -> ScalingConstants:
    """c1 = 2 sqrt(q) / (1 - sqrt(q)), c2 = q^(1/6) (1 + sqrt(q))^(1/3) / (1 - sqrt(q))."""
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    r = math.sqrt(q)
    return ScalingConstants(
        c1=2 * r / (1 - r),
        c2=q ** (1 / 6) * (1 + r) ** (1 / 3) / (1 - r),
    )


def normalization_constant(geometry: Geometry, y: Fraction) -> Fraction:
    """Product of (1 - p) over all squares; p = y^d for a square of degree
    d (1 or 2), so it is one power of (1 - y^d) per degree."""
    degrees = Counter(geometry.degree(i, j) for i, j in geometry.squares())
    return math.prod(
        ((1 - Fraction(y) ** d) ** count for d, count in degrees.items()), start=Fraction(1)
    )


def _rectangle_character(family: str, n: int, s: int, y: Fraction) -> Fraction:
    """The symplectic or odd_orthogonal character of the rectangle (s^n) at
    x_1 = ... = x_n = y, exactly.

    The Koike-Terada determinant of characters.character_jt, on ints.  With
    y = p/q, H_k = (pq)^k h_k(y^n, y^-n) is the z^k coefficient of
    1/((1 - p^2 z)^n (1 - q^2 z)^n), and of one more factor 1/(1 - pqz) for
    odd_orthogonal (its variable 1).  Scaling row i (from 0) by
    (pq)^(s - i + n - 1) and column j by (pq)^(j + 1 - n) leaves the int
    entries H_(s-i+j) + (pq)^(2j) H_(s-i-j) (symplectic, j >= 1) and
    H_(s-i+j) - (pq)^(2j+2) H_(s-i-j-2) (odd_orthogonal), and the scales
    multiply to (pq)^(ns).  One fraction-free Bareiss elimination takes the
    determinant.
    """
    if s == 0:
        return Fraction(1)  # the empty shape
    p, q = y.numerator, y.denominator
    pq = p * q
    top = s + n - 1

    def inverse_power(a: int) -> list[int]:
        # z^k coefficient of (1 - a z)^-n: C(n - 1 + k, k) a^k
        coefs = [1]
        for k in range(1, top + 1):
            coefs.append(coefs[-1] * a * (n - 1 + k) // k)
        return coefs

    left, right = inverse_power(p * p), inverse_power(q * q)
    h = [sum(left[a] * right[k - a] for a in range(k + 1)) for k in range(top + 1)]
    if family == "odd_orthogonal":
        for k in range(1, top + 1):
            h[k] += pq * h[k - 1]

    def at(k: int) -> int:
        return h[k] if k >= 0 else 0

    if family == "symplectic":
        mat = [[at(s - i)] + [at(s - i + j) + pq ** (2 * j) * at(s - i - j) for j in range(1, n)]
               for i in range(n)]
    else:
        mat = [[at(s - i + j) - pq ** (2 * j + 2) * at(s - i - j - 2) for j in range(n)]
               for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            swap = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if swap is None:
                return Fraction(0)
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot_row = mat[k]
        pivot = pivot_row[k]
        for row in mat[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * pivot_row[j]) // prev
        prev = pivot
    return Fraction(sign * mat[-1][-1], pq ** (n * s))


def exact_cdf(geometry: Geometry, bound: int, y: Fraction) -> Fraction:
    """Prob(L <= bound) as an exact rational, from rectangle characters.

    At x_i = y the bounded p2l series is y^(ns) sp_(s^n) and the bounded
    p2pr series at bound 2t is y^(nt) so_(t^n), through the Schur box sums
    that verify's theorem and stembridge suites check.  At bound 2s + 1 the
    p2pr law is the p2l law at s, by the spin identity behind Okada's
    rectangle sums (J. Algebra 205, 1998).  The p2hlr law is the product of
    the p2pr laws at bound and bound + 1, the quarter-square factorization
    at even bound.  With norm each geometry's normalization_constant:

        P_l(s) = norm_l * y^(ns) * sp_(s^n)(y)
        P_pr(2t) = norm_pr * y^(nt) * so_(t^n)(y)
        P_pr(2s + 1) = P_l(s)
        P_hlr(u) = P_pr(u) * P_pr(u + 1)
    """
    y = Fraction(y)
    if not 0 < y < 1:
        raise ValueError("y must lie strictly between 0 and 1")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    n = geometry.n
    if geometry.kind == "p2hlr":
        pr = Geometry("p2pr", n)
        return exact_cdf(pr, bound, y) * exact_cdf(pr, bound + 1, y)
    if geometry.kind == "p2pr" and bound % 2 == 0:
        t = bound // 2
        character = _rectangle_character("odd_orthogonal", n, t, y)
        return normalization_constant(geometry, y) * y ** (n * t) * character
    s = bound // 2 if geometry.kind == "p2pr" else bound
    character = _rectangle_character("symplectic", n, s, y)
    return normalization_constant(Geometry("p2l", n), y) * y ** (n * s) * character


# --- sampling -----------------------------------------------------------------


# Samples are drawn in chunks of _CHUNK, a multiple of the four doubles one
# Philox block yields: chunk [a, b) of square s reads the square's stream from
# block a // 4, so it draws exactly positions a..b-1 of that stream.  numpy is
# imported by the sampling functions alone, so the exact layers never load it.
_CHUNK = 1 << 14


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can pin a process
        return os.cpu_count() or 1


def _sample_chunks(
    squares: list[tuple[int, int, float]],
    seed_word: int,
    n_rows: int,
    chunks: list[tuple[int, int]],
    out: np.ndarray,
    stop: list,
) -> None:
    """Fill out[a:b] for each chunk [a, b), unless stop is set.

    One Philox and one Generator are re-keyed through .state for every
    (chunk, square); the float pipeline runs in place in one buffer and is
    cast once per square into the int64 weights.  The frontier stays int64:
    its sums pass 2^53 when y is close to 1, where float64 would round.
    """
    import numpy as np

    tiny = np.finfo(np.float64).tiny  # guards log(0) at U = 0
    size = min(_CHUNK, len(out))
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"]["key"] = key = np.array([seed_word, 0], dtype=np.uint64)
    state["state"]["counter"] = counter = np.zeros(4, dtype=np.uint64)
    u = np.empty(size)
    w = np.empty(size, dtype=np.int64)
    rows = np.empty((n_rows + 1, size), dtype=np.int64)
    for a, b in chunks:
        if stop:
            return
        front, draw, weight = rows[:, : b - a], u[: b - a], w[: b - a]
        front.fill(0)
        counter[0] = a // 4
        for stream, i, log_p in squares:
            key[1] = stream
            bitgen.state = state
            gen.random(out=draw)
            np.maximum(draw, tiny, out=draw)
            np.log(draw, out=draw)
            np.divide(draw, log_p, out=draw)
            np.floor(draw, out=draw)
            np.copyto(weight, draw, casting="unsafe")
            np.maximum(front[i], front[i - 1], out=front[i])
            front[i] += weight
        np.max(front, axis=0, out=out[a:b])


def sample_passage_times(spec: GeometricSpec, n_samples: int) -> np.ndarray:
    """Vector of lpp times for i.i.d. geometric fillings of the geometry.

    One value per column, as in lpp.lpp_time: squares() order visits each
    column's squares in consecutive rows, a column reads its west
    neighbour, and the largest final column value is the passage time.
    Chunks of _CHUNK samples are dealt round-robin to one worker per CPU
    (the calling thread is one of them); each writes its own slices of the
    result, so the values do not depend on the number of workers.
    """
    import numpy as np

    if n_samples < 1:
        raise ValueError("need at least one sample")
    geo = spec.geometry
    y = float(spec.y)
    code = _GEOMETRY_CODE[geo.kind] << 48
    squares = [
        (code | s, i, math.log(y ** geo.degree(i, j)))
        for s, (i, j) in enumerate(geo.squares())
    ]
    chunks = [(a, min(a + _CHUNK, n_samples)) for a in range(0, n_samples, _CHUNK)]
    workers = min(_cpu_count(), len(chunks))
    out = np.empty(n_samples, dtype=np.int64)
    stop: list[BaseException] = []  # the first worker failure, if any

    def work(k: int) -> None:
        try:
            _sample_chunks(squares, spec.seed, geo.n, chunks[k::workers], out, stop)
        except BaseException as exc:  # joined and re-raised by the caller
            stop.append(exc)

    threads = []
    for k in range(1, workers):
        thread = threading.Thread(target=work, args=(k,), daemon=True)
        try:
            thread.start()
        except RuntimeError:  # no thread to spare: the caller draws these chunks
            work(k)
        else:
            threads.append(thread)
    work(0)
    for thread in threads:
        thread.join()
    if stop:
        raise stop[0]
    return out


def _moments(data: np.ndarray) -> tuple[float, float, float]:
    import numpy as np

    mean = float(np.mean(data))
    centered = data - mean
    var = float(np.mean(centered**2))
    if var == 0:
        return mean, 0.0, 0.0
    skew = float(np.mean(centered**3)) / var**1.5
    return mean, var, skew


@dataclass
class SimulationReport:
    """Empirical summary of one seeded run; serializes without the timing."""

    geometry: str
    n: int
    q: float
    seed: int
    samples: int
    cdf: list[tuple[int, float]]
    mean: float
    variance: float
    normalized: dict
    wall_clock: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "geometry": self.geometry,
            "n": self.n,
            "q": self.q,
            "seed": self.seed,
            "samples": self.samples,
            "cdf": [[int(v), p] for v, p in self.cdf],
            "mean": self.mean,
            "variance": self.variance,
            "normalized": self.normalized,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["value,prob"]
        lines.extend(f"{v},{p!r}" for v, p in self.cdf)
        return "\n".join(lines) + "\n"

    def cdf_at(self, value: int) -> float:
        prob = 0.0
        for v, p in self.cdf:
            if v <= value:
                prob = p
            else:
                break
        return prob


def sample_lpp(spec: GeometricSpec, n_samples: int) -> SimulationReport:
    """Seeded Monte Carlo run; identical spec and n_samples reproduce bytes."""
    import numpy as np

    t0 = time.perf_counter()
    times = sample_passage_times(spec, n_samples)
    q = float(spec.q)
    consts = scaling_constants(q)
    n = spec.geometry.n
    stat = (times - consts.c1 * n) / (consts.c2 * n ** (1 / 3))
    counts = np.bincount(times)
    cum = np.cumsum(counts) / n_samples
    cdf = [(int(v), float(cum[v])) for v in range(len(counts))]
    mean, var, _ = _moments(times.astype(np.float64))
    nmean, nvar, nskew = _moments(stat)
    hist, edges = np.histogram(stat, bins=40)
    report = SimulationReport(
        geometry=spec.geometry.kind,
        n=n,
        q=q,
        seed=spec.seed,
        samples=n_samples,
        cdf=cdf,
        mean=mean,
        variance=var,
        normalized={
            "c1": consts.c1,
            "c2": consts.c2,
            "mean": nmean,
            "variance": nvar,
            "skewness": nskew,
            "histogram": {
                "edges": [float(e) for e in edges],
                "counts": [int(c) for c in hist],
            },
        },
    )
    report.wall_clock = time.perf_counter() - t0
    return report


# --- the product structure of the quarter-square law --------------------------


def factorization_report(
    n: int,
    y,
    mode: str,
    n_samples: int = 0,
    seed: int = 0,
    u_values: Sequence[int] | None = None,
) -> dict:
    """Check Prob(L_hlr <= u) = Prob(L_pr <= u) * Prob(L_l <= u/2).

    exact mode: rational equality at each even u (odd u is rejected: u/2 is
    not integral), the left side by enumeration, the normalization times the
    p2hlr degree series at y, so that it does not take exact_cdf's route.
    monte_carlo mode: three independent seeded runs and the
    sup distance between the empirical left side and the product of the
    right sides over even u.
    """
    if mode == "exact":
        ys = Fraction(y)
        if u_values is None:
            u_values = range(0, 9, 2)
        hlr, pr, pl = (Geometry(kind, n) for kind in ("p2hlr", "p2pr", "p2l"))
        checks = []
        all_equal = True
        for u in u_values:
            if u % 2:
                raise ValueError(f"exact factorization is stated for even u, got {u}")
            lhs = normalization_constant(hlr, ys) * degree_series(hlr, u).specialize([ys])
            rhs = exact_cdf(pr, u, ys) * exact_cdf(pl, u // 2, ys)
            equal = lhs == rhs
            all_equal = all_equal and equal
            checks.append(
                {"u": u, "lhs": str(lhs), "rhs": str(rhs), "equal": equal}
            )
        return {
            "mode": "exact",
            "n": n,
            "y": str(ys),
            "checks": checks,
            "all_equal": all_equal,
        }

    if mode == "monte_carlo":
        if n_samples < 1:
            raise ValueError("monte_carlo mode needs n_samples >= 1")
        reports = {
            kind: sample_lpp(GeometricSpec(y, Geometry(kind, n), seed), n_samples)
            for kind in KINDS
        }
        max_u = max(r.cdf[-1][0] for r in reports.values())
        sup = 0.0
        argmax = 0
        for u in range(0, max_u + 2, 2):
            lhs = reports["p2hlr"].cdf_at(u)
            rhs = reports["p2pr"].cdf_at(u) * reports["p2l"].cdf_at(u // 2)
            if abs(lhs - rhs) > sup:
                sup = abs(lhs - rhs)
                argmax = u
        return {
            "mode": "monte_carlo",
            "n": n,
            "q": float(y) ** 2,
            "samples": n_samples,
            "seed": seed,
            "sup_distance": sup,
            "sup_at": argmax,
        }

    raise ValueError(f"unknown mode {mode!r}")
