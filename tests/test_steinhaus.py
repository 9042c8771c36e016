"""Tests for triangle construction, balance checking, and the AP search."""

import ast
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlift import steinhaus
from ordlift.steinhaus import (
    ZnSequence,
    ap_sequence,
    is_balanced,
    length_admissible,
    search_balanced_ap,
    triangle,
)
from oracles import literal_balanced, literal_search, literal_triangle_counts

# Moduli past 128 need 16-bit fields in the packed pure-Python kernel.
sequences = st.integers(1, 300).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=1, max_size=14).map(
        lambda xs: ZnSequence(n, tuple(xs))
    )
)


def binomial_entries(seq: ZnSequence) -> list[int]:
    """Independent oracle: entry (i, j) is sum_k C(i, k) * s[j + k] mod n."""
    m = len(seq)
    n = seq.modulus
    return [
        sum(math.comb(i, k) * seq.elements[j + k] for k in range(i + 1)) % n
        for i in range(m)
        for j in range(m - i)
    ]


def pairwise_rows(seq: ZnSequence) -> list[list[int]]:
    rows = [list(seq.elements)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([(prev[i] + prev[i + 1]) % seq.modulus for i in range(len(prev) - 1)])
    return rows


def test_zn_sequence_validation():
    with pytest.raises(ValueError):
        ZnSequence(0, (0,))
    with pytest.raises(ValueError):
        ZnSequence(5, ())
    with pytest.raises(ValueError):
        ZnSequence(5, (5,))
    with pytest.raises(ValueError):
        ZnSequence(5, (-1,))
    assert ZnSequence.from_integers(5, [7, -1, 12]).elements == (2, 4, 2)


def test_triangle_balanced_example():
    summary = triangle(ZnSequence(5, (2, 2, 3, 3)))
    assert summary.counts == (2, 2, 2, 2, 2)
    assert summary.balanced
    assert summary.total == 10


def test_triangle_single_element():
    summary = triangle(ZnSequence(7, (4,)))
    assert summary.counts == (0, 0, 0, 0, 1, 0, 0)
    assert summary.length == 1 and summary.total == 1


def test_triangle_of_progression_mod_large_odd_n(monkeypatch):
    # The triangle has 15 entries, far fewer than 5 row classes over
    # Z/1000003 would cost, so the packed kernel counts it.
    def no_tables(*args):
        raise AssertionError("row-class table built")

    monkeypatch.setattr(steinhaus, "_row_class", no_tables)
    seq = ap_sequence(1, 2, 5, 1_000_003)
    assert triangle(seq).counts == tuple(literal_triangle_counts(seq.elements, seq.modulus))


def test_triangle_hand_computed():
    # (1, 1) mod 3 gives entries {1, 1, 2}
    summary = triangle(ZnSequence(3, (1, 1)))
    assert summary.counts == (0, 2, 1)
    assert not summary.balanced


def test_is_balanced_examples():
    assert is_balanced(ZnSequence(5, (2, 2, 3, 3)))
    assert is_balanced(ZnSequence(1, (0,)))
    assert is_balanced(ZnSequence(3, (1, 2)))  # entries 1, 2, 0
    assert not is_balanced(ZnSequence(3, (1, 1)))


@given(sequences)
@settings(max_examples=300)
def test_triangle_matches_binomial_formula(seq):
    expected = Counter(binomial_entries(seq))
    summary = triangle(seq)
    assert summary.counts == tuple(expected.get(r, 0) for r in range(seq.modulus))


@given(sequences)
@settings(max_examples=300)
def test_triangle_cardinality(seq):
    summary = triangle(seq)
    m = len(seq)
    assert sum(summary.counts) == m * (m + 1) // 2


@given(sequences)
@settings(max_examples=300)
def test_balanced_implies_admissible_length(seq):
    if is_balanced(seq):
        assert length_admissible(len(seq), seq.modulus)


def test_triangle_counts_at_field_width_boundaries():
    # The kernel packs each row into fields of 8, 16 or 32 bits chosen by n,
    # and counts the rows in 64 KB chunks, which a length of 362 passes.
    rng = random.Random(29)
    for n in (1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 32767, 32768, 32769, 65537):
        for m in (1, 2, 3, 362):
            # negative elements and elements >= n are reduced mod n
            values = [rng.randrange(-3 * n, 3 * n) for _ in range(m)]
            values[rng.randrange(m)] = n - 1 + n * rng.choice((-2, 0, 1))
            seq = ZnSequence.from_integers(n, values)
            if m <= 3:
                entries = binomial_entries(seq)
            else:
                entries = [x for row in pairwise_rows(seq) for x in row]
            expected = Counter(entries)
            assert steinhaus.triangle_counts(values, n) == [
                expected.get(r, 0) for r in range(n)
            ], (n, m)


def test_triangle_rows_are_additive():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        s = ZnSequence(n, tuple(rng.randrange(n) for _ in range(m)))
        t = ZnSequence(n, tuple(rng.randrange(n) for _ in range(m)))
        u = ZnSequence(n, tuple((x + y) % n for x, y in zip(s.elements, t.elements)))
        rows_sum = [
            [(x + y) % n for x, y in zip(rs, rt)]
            for rs, rt in zip(pairwise_rows(s), pairwise_rows(t))
        ]
        assert pairwise_rows(u) == rows_sum


def test_length_admissible():
    assert length_admissible(4, 5)
    assert length_admissible(9, 5)
    assert not length_admissible(3, 5)
    for m in (1, 2, 10, 31):
        assert length_admissible(m, 1)
    with pytest.raises(ValueError):
        length_admissible(0, 5)


def test_ap_sequence():
    assert ap_sequence(2, 1, 2, 5).elements == (2, 3)
    assert ap_sequence(2, 1, 4, 5).elements == (2, 3, 4, 0)
    assert ap_sequence(0, 0, 6, 7).elements == (0,) * 6
    assert ap_sequence(-1, -2, 3, 5).elements == (4, 2, 0)
    with pytest.raises(ValueError):
        ap_sequence(0, 1, 0, 5)


def test_all_zero_sequence_balanced_only_mod_1():
    assert is_balanced(ap_sequence(0, 0, 3, 1))
    for n in (2, 3, 5):
        assert not is_balanced(ap_sequence(0, 0, n, n))


def test_search_balanced_ap_known_results():
    assert search_balanced_ap(3, 3) == (1, 2)
    assert search_balanced_ap(5, 3) is None  # 5 does not divide C(4,2) = 6
    # no arithmetic progression of length 4 is balanced mod 5 even though a
    # non-progression one exists (2,2,3,3); 4 is outside the covered lengths
    assert search_balanced_ap(5, 4) is None
    assert search_balanced_ap(1, 2) == (0, 0)


def test_search_balanced_ap_rejects_even():
    with pytest.raises(ValueError):
        search_balanced_ap(4, 4)
    with pytest.raises(ValueError):
        search_balanced_ap(0, 4)


def test_modulus_too_large_to_count_is_value_error(monkeypatch):
    # No list of 10**20 + 1 counts can exist, so both fail at once with the
    # domain error, before the doubling period or any row-class table.
    def not_reached(*args):
        raise AssertionError("counted past the size check")

    monkeypatch.setattr(steinhaus, "_order_value", not_reached)
    monkeypatch.setattr(steinhaus, "_row_class", not_reached)
    n = 10**20 + 1
    message = f"^modulus {n} is too large: the triangle keeps one count per residue$"
    with pytest.raises(ValueError, match=message):
        triangle(ZnSequence(n, (1, 2, 3)))
    with pytest.raises(ValueError, match=message):
        search_balanced_ap(n, n - 1)


def test_search_too_many_tables_is_value_error(monkeypatch):
    # ord(2) mod the prime 1000003 is 1000002, so the search would keep
    # 1000002 tables of 1000003 counts: refused before any table is built.
    def not_reached(*args):
        raise AssertionError("row-class table built")

    monkeypatch.setattr(steinhaus, "_row_class", not_reached)
    n, m = 1_000_003, 1_000_002
    assert length_admissible(m, n)
    message = (
        f"^modulus {n} is too large: a length-{m} search keeps {m} row-class "
        f"tables of {n} counts$"
    )
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        search_balanced_ap(n, m)
    assert time.perf_counter() - t0 < 1.0


def test_search_returns_lexicographically_first():
    # The literal scan over all n**2 progressions, with literal triangle
    # counts, is the oracle: the search tests one pair per symmetry orbit and
    # counts by row classes instead.
    grid = {(n, m) for n in range(1, 16, 2) for m in range(1, 40)}
    grid |= {
        (n, m)
        for n in range(1, 18, 2)
        for m in range(1, 3 * n)
        if length_admissible(m, n)
    }
    for n, m in sorted(grid):
        assert search_balanced_ap(n, m) == literal_search(n, m), (n, m)


def test_search_and_counts_past_the_row_period():
    # Lengths up to three row periods k*n, k = ord_n(2): from two periods on,
    # the row-class tables come from those at m mod k*N and one period more.
    rng = random.Random(1978)
    for n in (3, 5, 7, 9, 11):
        period = next(k for k in range(1, n + 1) if pow(2, k, n) == 1) * n
        for m in range(1, 3 * period + 1):
            if n <= 7 and length_admissible(m, n):
                assert search_balanced_ap(n, m) == literal_search(n, m), (n, m)
            if m % 5 == 0 or m % period in (0, 1, period - 1):
                ap = ap_sequence(rng.randrange(n), rng.randrange(n), m, n).elements
                want = literal_triangle_counts(ap, n)
                assert steinhaus.triangle_counts(ap, n) == want, (ap[:2], m, n)


def test_oracles_import_nothing_from_ordlift():
    # The triangle and search cross-checks rest on tests/oracles.py alone.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert "ordlift" not in {name.split(".")[0] for name in imported}, imported


def test_search_found_witnesses_are_balanced():
    for n in (3, 5, 7, 9, 11):
        for m in (n - 1, n, 2 * n - 1, 2 * n):
            hit = search_balanced_ap(n, m)
            if hit is not None:
                assert literal_balanced([hit[0] + k * hit[1] for k in range(m)], n)
