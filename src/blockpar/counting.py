"""Exact counts of schedule classes, with redundant routes cross-checked.

A class member is supported by an integer partition of ``n`` (its o-block
length multiset), and the per-partition terms below count the members of
each support; they are public as diagnostics.  The totals do not walk the
partitions: every column of :func:`count_table` for every ``n <= n_max``
comes from one pass over part sizes (a knapsack) or from a recurrence.
Each column has at least two independent routes, and a disagreement raises
:class:`CrossCheckError` because it can only mean an implementation bug:

* ``bs``: the ordered-Bell recurrence and the Stirling numbers of the
  second kind;
* ``bp``: the recurrence of OEIS A000262 and a knapsack over ``n!/prod m_j!``;
* ``bp0`` and ``bp_star``: two knapsacks with state ``(size, lcm)``, one
  dividing by ``(m!)**j`` and one multiplying binomial column factors, which
  must agree on every state; ``bp_star`` divides each state exactly by its
  lcm.  ``bp0`` is also read off its exponential generating function.

All arithmetic is exact: Python integers throughout, ``Fraction`` for the
generating-function route (imported only when it runs).
"""

from __future__ import annotations

from math import comb, factorial, lcm

from .errors import CrossCheckError, ResourceCapError
from .partitions import Partition

#: Largest ``n_max`` of :func:`count_table`.  The table's cost grows with the
#: number of ``(size, lcm)`` states: about 0.3 s in-process at 60 and 4 s at
#: 100 on a 2-vCPU Xeon host (Python 3.11).
COUNT_N_CAP = 100


def _exact_div(a: int, b: int, what: str) -> int:
    q, r = divmod(a, b)
    if r:
        raise CrossCheckError(f"{what}: {a} is not divisible by {b}")
    return q


# ---------------------------------------------------------------------------
# Per-partition terms (exposed for diagnostics and enumeration tests)

def bs_term(p: Partition) -> int:
    """Ordered partitions of ``0..n-1`` whose block-size multiset is ``p``."""
    placements = factorial(p.n)
    for j in p.part_sizes():
        placements = _exact_div(placements, factorial(j) ** p.m(j), "bs placements")
    orderings = factorial(len(p.parts))
    for j in p.part_sizes():
        orderings = _exact_div(orderings, factorial(p.m(j)), "bs block orderings")
    return placements * orderings


def bp_term(p: Partition) -> int:
    """Partitioned orders supported by ``p``: n! over the part multiplicities."""
    result = factorial(p.n)
    for j in p.part_sizes():
        result = _exact_div(result, factorial(p.m(j)), "bp term")
    return result


def bp_term_product(p: Partition) -> int:
    """Partitioned orders supported by ``p``, matrix-filling form.

    Fill one matrix per part size: choose its elements among those not yet
    placed, then arrange them in rows up to row permutation.
    """
    result = 1
    remaining = p.n
    for j in range(1, p.d + 1):
        m = p.m(j)
        if m == 0:
            continue
        take = j * m
        result *= comb(remaining, take) * _exact_div(
            factorial(take), factorial(m), "bp row arrangements"
        )
        remaining -= take
    return result


def bp0_term(p: Partition) -> int:
    """Schedule classes up to dynamical equality supported by ``p`` (direct form)."""
    result = factorial(p.n)
    for j in p.part_sizes():
        result = _exact_div(result, factorial(p.m(j)) ** j, "bp0 term")
    return result


def bp0_term_columns(p: Partition) -> int:
    """Same count, column-choice form: fill every matrix column by column."""
    result = 1
    remaining = p.n
    for j in range(1, p.d + 1):
        m = p.m(j)
        if m == 0:
            continue
        left = remaining
        for _ in range(j):
            result *= comb(left, m)
            left -= m
        remaining -= j * m
    return result


def bp0_term_matrices(p: Partition) -> int:
    """Same count, matrix-then-columns form: choose each matrix's elements,
    then split them into unordered columns."""
    result = 1
    remaining = p.n
    for j in range(1, p.d + 1):
        m = p.m(j)
        if m == 0:
            continue
        take = j * m
        ways = comb(remaining, take)
        for col in range(1, j + 1):
            ways *= comb((j - col + 1) * m, m)
        result *= ways
        remaining -= take
    return result


def bp_star_term(p: Partition) -> int:
    """Schedule classes up to limit isomorphism supported by ``p``.

    The dynamical-equality count for ``p`` is always divisible by the lcm of
    its part sizes; non-divisibility is reported as a hard failure.
    """
    return _exact_div(bp0_term(p), p.lcm(), "bp_star term")


# ---------------------------------------------------------------------------
# Columns: each returns its counts for n = 0..n_max after checking its routes

def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def _agree(what: str, first: list, *others: list) -> list:
    """``first`` once every one of ``others`` equals it: the same column, of
    counts or states for ``n = 0..n_max``, by other routes."""
    for other in others:
        if other != first:
            n = next(n for n, (a, b) in enumerate(zip(first, other)) if a != b)
            raise CrossCheckError(f"{what}({n}): routes disagree: {first[n]} != {other[n]}")
    return first


def _bs_recurrence(n_max: int) -> list[int]:
    """Ordered Bell numbers: ``a(n) = sum_k C(n, k) a(n - k)``."""
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a


def _bs_stirling(n_max: int) -> list[int]:
    """Ordered Bell numbers as ``sum_k k! S(n, k)``, with the Stirling numbers
    of the second kind from ``S(n, k) = k S(n-1, k) + S(n-1, k-1)``."""
    row = [1]
    a = [1]
    for n in range(1, n_max + 1):
        row = [0] + [k * (row[k] if k < n else 0) + row[k - 1] for k in range(1, n + 1)]
        a.append(sum(factorial(k) * s for k, s in enumerate(row)))
    return a


def _bp_recurrence(n_max: int) -> list[int]:
    """Sets of lists (OEIS A000262): ``a(n) = (2n-1) a(n-1) - (n-1)(n-2) a(n-2)``."""
    a = [1, 1]
    for n in range(2, n_max + 1):
        a.append((2 * n - 1) * a[n - 1] - (n - 1) * (n - 2) * a[n - 2])
    return a[:n_max + 1]


def _bp_knapsack(n_max: int) -> list[int]:
    """``sum_p n!/prod_j m_j!`` for every ``n``, as a knapsack over part sizes
    holding ``n_max! sum prod_j 1/m_j!`` per size, which stays integral."""
    top = factorial(n_max)
    sizes = [top] + [0] * n_max
    for j in range(1, n_max + 1):
        for s in range(n_max - j, -1, -1):
            if sizes[s]:
                for m in range(1, (n_max - s) // j + 1):
                    sizes[s + j * m] += _exact_div(sizes[s], factorial(m), "bp knapsack")
    return [_exact_div(v, top // factorial(n), "bp knapsack") for n, v in enumerate(sizes)]


def _lcm_states_direct(n_max: int) -> list[dict[int, int]]:
    """For each size ``n`` and lcm ``L``, the sum of ``bp0_term(p)`` over the
    partitions ``p`` of ``n`` with lcm ``L``, direct form.

    The knapsack holds ``n_max! sum prod_j 1/(m_j!)**j``, which stays integral
    because ``(m!)**j`` divides ``(j m)!``; each size is then divided by
    ``n_max!/n!``.
    """
    top = factorial(n_max)
    states: list[dict[int, int]] = [{1: top}] + [{} for _ in range(n_max)]
    for j in range(1, n_max + 1):
        for s in range(n_max - j, -1, -1):
            items = [(lcm(size_lcm, j), v) for size_lcm, v in states[s].items()]
            for m in range(1, (n_max - s) // j + 1):
                weight = factorial(m) ** j
                target = states[s + j * m]
                for size_lcm, v in items:
                    target[size_lcm] = target.get(size_lcm, 0) + _exact_div(
                        v, weight, "bp0 knapsack")
    return [{size_lcm: _exact_div(v, top // factorial(n), "bp0 knapsack")
             for size_lcm, v in state.items()} for n, state in enumerate(states)]


def _lcm_states_columns(n_max: int) -> list[dict[int, int]]:
    """The states of :func:`_lcm_states_direct`, column-choice form.

    A binomial convolution: placing ``m`` rows of length ``j`` on ``s`` placed
    elements multiplies by ``C(s + j m, j m)`` ways to pick the new labels and
    ``prod_c C(c m, m)`` ways to fill their columns; no division is made.
    """
    states: list[dict[int, int]] = [{1: 1}] + [{} for _ in range(n_max)]
    for j in range(1, n_max + 1):
        columns = [1]
        for m in range(1, n_max // j + 1):
            ways = 1
            for c in range(1, j + 1):
                ways *= comb(c * m, m)
            columns.append(ways)
        for s in range(n_max - j, -1, -1):
            items = [(lcm(size_lcm, j), v) for size_lcm, v in states[s].items()]
            for m in range(1, (n_max - s) // j + 1):
                weight = comb(s + j * m, j * m) * columns[m]
                target = states[s + j * m]
                for size_lcm, v in items:
                    target[size_lcm] = target.get(size_lcm, 0) + weight * v
    return states


def _bs_column(n_max: int) -> list[int]:
    return _agree("count_bs", _bs_recurrence(n_max), _bs_stirling(n_max))


def _bp_column(n_max: int) -> list[int]:
    return _agree("count_bp", _bp_recurrence(n_max), _bp_knapsack(n_max))


def _bp0_columns(n_max: int) -> tuple[list[int], list[int]]:
    """The ``bp0`` and ``bp_star`` columns from the two ``(size, lcm)``
    knapsacks, and ``bp0`` also from its generating function."""
    states = _agree("count_bp0 by lcm", _lcm_states_direct(n_max),
                    _lcm_states_columns(n_max))
    bp0 = _agree("count_bp0", [sum(state.values()) for state in states],
                 _bp0_via_egf(n_max))
    bp_star = [sum(_exact_div(v, size_lcm, "bp_star term") for size_lcm, v in state.items())
               for state in states]
    return bp0, bp_star


# ---------------------------------------------------------------------------
# Totals

def count_table(n_max: int) -> list[tuple[int, int, int, int, int, int]]:
    """Rows ``(n, bs, bp, bp0, bp_star, bs_inter_bp)`` for ``n = 1..n_max``,
    every column built once for all ``n`` and cross-checked.

    Raises :class:`ResourceCapError` for ``n_max`` above ``COUNT_N_CAP``.
    """
    _check_n(n_max)
    if n_max > COUNT_N_CAP:
        raise ResourceCapError(
            f"count table up to n={n_max} is above the cap of n={COUNT_N_CAP}"
        )
    bs, bp = _bs_column(n_max), _bp_column(n_max)
    bp0, bp_star = _bp0_columns(n_max)
    return [(n, bs[n], bp[n], bp0[n], bp_star[n], count_bs_inter_bp(n))
            for n in range(1, n_max + 1)]


def count_bs(n: int) -> int:
    """Block-sequential schedules on ``n`` automata (ordered Bell numbers)."""
    _check_n(n)
    return _bs_column(n)[n]


def count_bp(n: int) -> int:
    """Block-parallel schedules on ``n`` automata ("sets of lists")."""
    _check_n(n)
    return _bp_column(n)[n]


def count_bp0(n: int) -> int:
    """Block-parallel schedules up to dynamical equality."""
    _check_n(n)
    return _bp0_columns(n)[0][n]


def count_bp_star(n: int) -> int:
    """Block-parallel schedules up to limit isomorphism."""
    _check_n(n)
    return _bp0_columns(n)[1][n]


def count_bs_inter_bp(n: int) -> int:
    """Block sequences that are both block-sequential and rewritten block-parallel.

    Divisor sum: for each divisor ``d`` of ``n``, the ordered partitions into
    ``d`` blocks of equal size ``n/d``.
    """
    _check_n(n)
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _exact_div(factorial(n), factorial(n // d) ** d, "bs/bp intersection")
    return total


# ---------------------------------------------------------------------------
# Generating-function route

def _poly_mul_trunc(a: list[Fraction], b: list[Fraction], degree: int) -> list[Fraction]:
    from fractions import Fraction

    out = [Fraction(0)] * (degree + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > degree:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def egf_coefficients(degree: int) -> list[Fraction]:
    """Coefficients up to ``x**degree`` of the product over ``j >= 1`` of
    ``sum_k (x**k / k!) ** j``.

    Factors with ``j > degree`` only contribute their constant term 1 below
    ``x**(degree+1)``, so the product over ``j <= degree`` suffices.
    """
    from fractions import Fraction

    series = [Fraction(0)] * (degree + 1)
    series[0] = Fraction(1)
    for j in range(1, degree + 1):
        factor = [Fraction(0)] * (degree + 1)
        k = 0
        while j * k <= degree:
            factor[j * k] = Fraction(1, factorial(k) ** j)
            k += 1
        series = _poly_mul_trunc(series, factor, degree)
    return series


def _bp0_via_egf(n_max: int) -> list[int]:
    """The ``bp0`` counts for ``n = 0..n_max``: each ``x**n`` coefficient of
    the generating function times ``n!``, which must be an integer."""
    counts = []
    for n, coefficient in enumerate(egf_coefficients(n_max)):
        count = coefficient * factorial(n)
        if count.denominator != 1:
            raise CrossCheckError(f"EGF coefficient for n={n} is not integral: {count}")
        counts.append(int(count))
    return counts


def count_bp0_via_egf(n: int) -> int:
    """Dynamical-equality count extracted from its exponential generating function.

    The ``x**n`` coefficient times ``n!`` must be an integer; anything else is
    a hard failure.
    """
    _check_n(n)
    return _bp0_via_egf(n)[n]
