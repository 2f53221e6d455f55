import math

import pytest

from blockpar.gadget import gadget_primes, prime_count_for, sieve_primes_below
from blockpar.partitions import Partition, lcm_of, partitions_of

import oracles

# First forty partition numbers, p(1) onward.
PARTITION_NUMBERS = [
    1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385,
    490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604, 6842,
    8349, 10143, 12310, 14883, 17977, 21637, 26015, 31185, 37338,
]


def test_order_for_four():
    got = [p.parts for p in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_base_case():
    assert [p.parts for p in partitions_of(1)] == [(1,)]


def test_zero_rejected():
    with pytest.raises(ValueError):
        list(partitions_of(0))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30, 40])
def test_counts_match_recursive_oracle(n):
    assert sum(1 for _ in partitions_of(n)) == oracles.partition_count(n)
    assert oracles.partition_count(n) == PARTITION_NUMBERS[n - 1]


def test_same_partitions_as_ascending_oracle():
    for n in range(1, 13):
        ours = {tuple(sorted(p.parts)) for p in partitions_of(n)}
        assert ours == oracles.partitions_ascending(n)


def test_yielded_invariants():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert sum(j * p.m(j) for j in range(1, p.d + 1)) == n
            assert p.m(p.d) >= 1
            assert p.m(p.d + 1) == 0
            assert p.m(0) == 0


def test_example_n31():
    target = Partition.from_parts((2, 2, 3, 3, 3, 3, 5, 5, 5))
    assert target in set(partitions_of(31))
    assert target.d == 5
    assert [target.m(j) for j in range(1, 6)] == [0, 2, 4, 0, 3]


def test_lcm_of():
    assert lcm_of(Partition.from_parts((2, 3))) == 6
    assert lcm_of(Partition.from_parts((2, 2, 3, 3, 3, 3, 5, 5, 5))) == 30
    assert lcm_of(Partition.from_parts((1, 1, 1))) == 1


def test_lcm_divides_product_and_parts_divide_lcm():
    for n in range(1, 11):
        for p in partitions_of(n):
            product = math.prod(set(p.parts))
            assert product % p.lcm() == 0
            assert all(p.lcm() % part == 0 for part in p.parts)


def test_label_roundtrip():
    p = Partition.from_parts((3, 2, 2))
    assert p.label() == "2+2+3"
    assert Partition.parse("2+2+3") == p


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition(4, (2, 1))
    with pytest.raises(ValueError):
        Partition(3, ())
    with pytest.raises(ValueError):
        Partition.from_parts((2, 0, 1))


def test_gadget_primes_n3():
    basis = gadget_primes(3)
    assert basis.primes == (2, 3, 5, 7)
    assert basis.cumulative == (0, 2, 5, 10, 17)
    assert basis.k == 4
    assert basis.total == 17


def test_gadget_primes_n2():
    basis = gadget_primes(2)
    assert basis.primes == (2, 3)
    assert basis.product() == 6 > 2**2


def test_gadget_primes_rejects_small_n():
    with pytest.raises(ValueError):
        gadget_primes(1)


def test_gadget_primes_bounds_up_to_64():
    for n in range(2, 65):
        basis = gadget_primes(n)
        product = basis.product()
        assert 2**n < product < 2 ** (2 * n * n)
        assert all(p < n * n for p in basis.primes)
        assert list(basis.primes) == sorted(set(basis.primes))
        assert all(b < a for b, a in zip(basis.cumulative, basis.cumulative[1:]))
        assert len(basis.primes) <= prime_count_for(n)


def test_sieve():
    assert sieve_primes_below(2) == []
    assert sieve_primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
