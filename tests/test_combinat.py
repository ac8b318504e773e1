"""Enumerators against independent dynamic programs and closed forms."""

from math import comb

from hypothesis import given
from hypothesis import strategies as st

from riordan_lab.combinat import (OddPartition, catalan_number, compositions,
                                  odd_partitions, partitions)


def partition_count_dp(n: int) -> int:
    """Classic coin-change table, parts 1..n."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def odd_partition_count_dp(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


@given(st.integers(0, 14))
def test_partition_count_matches_dp(n):
    assert sum(1 for _ in partitions(n)) == partition_count_dp(n)


@given(st.integers(0, 12), st.integers(0, 12))
def test_partition_exact_parts_counts(n, m):
    got = sum(1 for _ in partitions(n, m))
    # parts(n, m) = parts(n - m) into parts of size <= m; DP over that
    table = [1] + [0] * max(n - m, 0)
    for part in range(1, m + 1):
        for total in range(part, n - m + 1):
            table[total] += table[total - part]
    want = table[n - m] if 0 <= n - m else 0
    if m == 0:
        want = 1 if n == 0 else 0
    assert got == want


def test_partitions_are_sorted_tuples_summing_to_n():
    for n in range(10):
        seen = set()
        for tup in partitions(n):
            assert sum(tup) == n
            assert list(tup) == sorted(tup)
            assert all(p >= 1 for p in tup)
            assert tup not in seen
            seen.add(tup)


@given(st.integers(1, 10))
def test_composition_count_is_power_of_two(n):
    assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)


@given(st.integers(1, 10), st.integers(1, 10))
def test_composition_exact_length_count(n, m):
    got = sum(1 for _ in compositions(n, m))
    assert got == (comb(n - 1, m - 1) if m <= n else 0)


def test_compositions_edge_cases():
    assert list(compositions(0)) == [()]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(0, 2)) == []
    assert list(compositions(3)) == [(3,), (1, 2), (2, 1), (1, 1, 1)]


@given(st.integers(0, 15))
def test_odd_partition_count_matches_dp(n):
    assert sum(1 for _ in odd_partitions(n)) == odd_partition_count_dp(n)


def test_odd_partition_statistics():
    for n in range(1, 13):
        for op in odd_partitions(n):
            assert op.n == n
            assert op.q == len(op.parts())
            assert all(p % 2 == 1 for p in op.parts())
            # k = (n + q) / 2 always
            assert 2 * op.k == n + op.q
            assert len(op.mults) == (n - 1) // 2 + 1


def test_odd_partitions_with_part_count():
    # 9 = 9 = 7+1+1 = 5+3+1 = 3+3+3 = ... filter on q
    by_q = {}
    for op in odd_partitions(9):
        by_q.setdefault(op.q, set()).add(op.parts())
    assert by_q[1] == {(9,)}
    assert by_q[3] == {(1, 1, 7), (1, 3, 5), (3, 3, 3)}
    for q, parts in by_q.items():
        got = {op.parts() for op in odd_partitions(9, q)}
        assert got == parts


def _odd_by_filter(n, parts=None):
    """Odd partitions as a filter over all partitions produces them."""
    if n == 0:
        return [OddPartition(())] if parts in (None, 0) else []
    out = []
    for tup in partitions(n, parts):
        if all(p % 2 == 1 for p in tup):
            mults = [0] * ((n - 1) // 2 + 1)
            for p in tup:
                mults[(p - 1) // 2] += 1
            out.append(OddPartition(tuple(mults)))
    return out


def test_odd_partitions_enumerate_the_filtered_sequence_in_order():
    for n in range(21):
        for parts in [None] + list(range(n + 2)):
            assert list(odd_partitions(n, parts)) == _odd_by_filter(n, parts)


def test_odd_partition_empty():
    assert list(odd_partitions(0)) == [OddPartition(())]
    assert OddPartition(()).n == 0 and OddPartition(()).q == 0


def test_catalan_numbers():
    assert [catalan_number(n) for n in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430]
