"""The prime counter gadget: one step of more than ``2**n`` substeps.

The gadget is the paper's hardness construction for computing the image of
one configuration.  Padding automata sit in o-blocks of distinct prime
lengths, so one step runs the product of those primes as substeps, and a
saturating ``n``-bit counter counts them.  ``gadget_primes`` is one doubling
prime walk that both chooses the primes and checks the gadget against
``GADGET_AUTOMATA_CAP``, read at each call.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .errors import CrossCheckError, Record, ResourceCapError
from .network import BooleanNetwork, Const, Or, Var, Xor, and_chain
from .schedule import PartitionedOrder

#: Most automata ``counter_gadget`` builds: ``n = 68`` has 1,001,672.
GADGET_AUTOMATA_CAP = 1 << 20


class PrimeGadgetBasis(Record):
    """Distinct primes below ``n**2`` whose product exceeds ``2**n``.

    ``cumulative`` holds the running sums q_0 = 0, q_j = p_1 + ... + p_j;
    the gadget builders use q_j as o-block boundaries.
    """

    __slots__ = _fields = ("n", "primes", "cumulative")

    def __init__(self, n: int, primes: tuple[int, ...], cumulative: tuple[int, ...]):
        if list(primes) != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if tuple(accumulate(primes, initial=0)) != cumulative:
            raise ValueError("cumulative sums do not match the prime list")
        super().__init__(n, primes, cumulative)

    @property
    def k(self) -> int:
        """Number of primes."""
        return len(self.primes)

    @property
    def total(self) -> int:
        """Sum of all primes (number of padding automata in a gadget)."""
        return self.cumulative[-1]

    def product(self) -> int:
        return math.prod(self.primes)


def sieve_primes_below(limit: int) -> list[int]:
    """All primes strictly below ``limit`` (sieve of Eratosthenes)."""
    if limit <= 2:
        return []
    composite = bytearray(limit)
    primes = []
    for p in range(2, limit):
        if composite[p]:
            continue
        primes.append(p)
        for q in range(p * p, limit, p):
            composite[q] = 1
    return primes


def prime_count_for(n: int) -> int:
    """How many of the smallest primes below ``n**2`` to take: floor(n^2 / (2 ln n))."""
    return int(n * n / (2.0 * math.log(n)))


def gadget_primes(n: int) -> PrimeGadgetBasis:
    """Prime basis for building schedules with more than ``2**n`` substeps.

    Takes the ``prime_count_for(n)`` smallest primes below ``n**2``; their
    product then lies strictly between ``2**n`` and ``2**(2*n**2)``, and every
    prime is below ``n**2``.  Deterministic for each ``n``.

    The primes are sieved below a doubling limit, and a gadget of ``n``
    counter automata and one padding automaton per unit of each prime is
    refused (:class:`ResourceCapError`) as soon as the primes found put it
    past ``GADGET_AUTOMATA_CAP``, without sieving ``n*n`` bytes.
    """
    if n < 2:
        raise ValueError(f"prime basis needs n >= 2, got {n}")
    cap = GADGET_AUTOMATA_CAP
    # n > cap is refused on the first pass, before prime_count_for's float
    # division could overflow.
    k = prime_count_for(n) if n <= cap else 0
    chosen, limit = (), 1
    while True:
        if n + sum(chosen) > cap:
            raise ResourceCapError(f"counter gadget for n={n} has more than {cap} automata")
        if len(chosen) == k or limit == n * n:
            break
        limit = min(2 * limit, n * n)
        chosen = tuple(sieve_primes_below(limit)[:k])
    product = math.prod(chosen)
    if product <= 2**n:  # pragma: no cover - ruled out for all n >= 2
        raise CrossCheckError(
            f"prime product {product} for n={n} does not exceed 2**{n} (primes {chosen})"
        )
    return PrimeGadgetBasis(n, chosen, tuple(accumulate(chosen, initial=0)))


class GadgetBundle(Record):
    """A network/schedule pair with named automaton ranges, and the
    :class:`PrimeGadgetBasis` it was built from.

    The ``padding`` and ``counter`` ranges split the automata.  ``padding``
    automata sit in o-blocks of prime lengths and force the substep count up
    to the product of those primes; ``counter`` automata sit in singleton
    o-blocks and are updated at every substep.
    """

    __slots__ = _fields = ("network", "schedule", "padding", "counter", "basis")

    @property
    def n_automata(self) -> int:
        return self.network.n


def counter_gadget(n: int) -> GadgetBundle:
    """Saturating binary counter driven by prime-length padding o-blocks.

    The padding automata are constant 0; the last ``n`` automata increment a
    little-endian counter (automaton ``q`` holds the least significant bit)
    once per substep until it sticks at all-ones.  One full step has more than
    ``2**n`` substeps, so the whole dynamics is the constant map onto
    ``0^q 1^n``.
    """
    if n < 2:
        raise ValueError(f"counter gadget needs n >= 2, got {n}")
    basis = gadget_primes(n)
    q = basis.total
    counter_vars = [Var(q + i) for i in range(n)]
    all_ones = and_chain(counter_vars)
    locals_: list = [Const(0)] * q
    for i in range(n):
        carry = and_chain(counter_vars[:i])
        locals_.append(Or(all_ones, Xor(Var(q + i), carry)))
    oblocks = [
        tuple(range(basis.cumulative[i], basis.cumulative[i + 1]))
        for i in range(basis.k)
    ]
    oblocks.extend((q + i,) for i in range(n))
    return GadgetBundle(
        network=BooleanNetwork(locals_),
        schedule=PartitionedOrder(q + n, oblocks),
        padding=range(0, q),
        counter=range(q, q + n),
        basis=basis,
    )


def counter_value(bundle: GadgetBundle, x: int) -> int:
    """Read the counter embedded in a gadget configuration."""
    width = len(bundle.counter)
    return (x >> bundle.counter.start) & ((1 << width) - 1)
