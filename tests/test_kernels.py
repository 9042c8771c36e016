"""The pure-Python kernels, the only ones ordlift runs, and their compiled
twins, which the benchmark's traced run compares them with, must agree with
each other and with the literal triangle counts and search of ``oracles``.

The compiled twins are built from the shipped ``_kernels.c`` by
``perfbench/kernels.py``'s ``build``, the recipe the traced run uses, into a
temporary directory, never in place.  Their tests skip only when that build
returns no module, as it does without gcc or the Python headers.
"""

import importlib.util
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlift import _pykernels, steinhaus
from oracles import literal_search, literal_triangle_counts

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordlift"


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "perfbench_kernels", ROOT / "perfbench" / "kernels.py")
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    module, reason = recipe.build(ROOT, tmp_path_factory.mktemp("kernels"))
    if module is None:
        pytest.skip(f"compiled kernels could not be built: {reason}")
    return module


def test_order_scans_agree_on_grid(compiled):
    for n in range(1, 400):
        for a in range(1, 40):
            if math.gcd(a, n) != 1:
                continue
            assert compiled.order_scan(a, n) == _pykernels.order_scan(a, n)
            assert compiled.proj_order_scan(a, n) == _pykernels.proj_order_scan(a, n)


@given(st.integers(1, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=200)
def test_order_scans_agree_random(compiled, n, a):
    if math.gcd(a, n) != 1:
        return
    assert compiled.order_scan(a, n) == _pykernels.order_scan(a, n)
    assert compiled.proj_order_scan(a, n) == _pykernels.proj_order_scan(a, n)


def test_order_scan_against_phi_route(compiled):
    # independent check: the scan agrees with the phi-factorization path
    from ordlift.orders import mult_order

    for n in range(1, 300):
        for a in range(1, 25):
            if math.gcd(a, n) == 1:
                assert compiled.order_scan(a, n) == mult_order(a, n).order


def test_pure_scans_against_engine():
    # the scans ordlift runs, checked without the compiled twins
    from ordlift.orders import mult_order, proj_order

    for n in range(1, 300):
        for a in range(-25, 25):
            if math.gcd(a, n) == 1:
                assert _pykernels.order_scan(a, n) == mult_order(a, n).order, (a, n)
                assert _pykernels.proj_order_scan(a, n) == proj_order(a, n), (a, n)


def test_scan_caps_on_noncoprime_base(compiled):
    with pytest.raises(ValueError):
        compiled.order_scan(6, 10)
    with pytest.raises(ValueError):
        _pykernels.order_scan(6, 10)
    with pytest.raises(ValueError):
        compiled.proj_order_scan(6, 10)
    with pytest.raises(ValueError):
        _pykernels.proj_order_scan(6, 10)


# Moduli on both sides of each field width of the packed pure-Python rows.
WIDTH_BOUNDARIES = (1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 32767, 32768, 32769, 65537)


def order_of_two(n):
    """ord_n(2) for odd n, by literal doubling."""
    k, x = 1, 2 % n
    while x != 1 % n:
        k, x = k + 1, 2 * x % n
    return k


def takes_row_classes(d, m, n):
    """True iff triangle_counts counts the progression with step d by row
    classes: n odd and m + min(ord_n(2), m) * n/gcd(d, n) <= m(m+1)/2."""
    k = min(order_of_two(n), m)
    return n % 2 == 1 and m + k * (n // math.gcd(d, n)) <= m * (m + 1) // 2


def progression_cases():
    """1200 progressions (c, d, m, n) with n <= 36 of either parity, steps
    of every gcd with n, and lengths up to 80."""
    rng = random.Random(41)
    cases = [(0, 0, 5, 1), (0, 3, 7, 12), (2, 4, 30, 8), (1, 6, 40, 9)]
    while len(cases) < 1200:
        n = rng.randint(1, 36)
        g = rng.choice([k for k in range(1, n + 1) if n % k == 0])
        cases.append((rng.randrange(n), g * rng.randrange(n) % n, rng.randint(1, 80), n))
    return cases


def test_triangle_counts_agree(compiled):
    rng = random.Random(23)
    cases = []
    for _ in range(500):
        n = rng.randint(1, 20)
        cases.append(([rng.randrange(n) for _ in range(rng.randint(1, 30))], n))
    for n in WIDTH_BOUNDARIES:
        for m in (1, 2, 3, 40):
            cases.append(([rng.randrange(-2 * n, 2 * n) for _ in range(m)], n))
    # Progressions mod even n, which the row classes never count.
    for c, d, m, n in progression_cases():
        if n % 2 == 0:
            cases.append(([(c + k * d) % n for k in range(m)], n))
    routes = set()
    for _ in range(300):
        n = rng.randrange(1, 62, 2)
        c, d, m = rng.randrange(n), rng.randrange(n), rng.randint(3, 3 * n)
        routes.add(takes_row_classes(d, m, n))
        ap = [(c + k * d) % n for k in range(m)]
        # Unreduced elements in [-2n, 2n) of the same progression.
        cases.append(([x + n * rng.randrange(-2, 2) for x in ap], n))
        # Off by one in the last element, so no longer a progression.
        cases.append((ap[:-1] + [ap[-1] + 1], n))
    assert routes == {False, True}
    # Odd-n progressions that the cost rule leaves to the packed kernel.
    for n in WIDTH_BOUNDARIES[2:]:
        for m in (3, 4, 40):
            c, d = rng.randrange(n), rng.randrange(n)
            if n % 2 and not takes_row_classes(d, m, n):
                cases.append(([c + k * d for k in range(m)], n))
    for seq, n in cases:
        expected = literal_triangle_counts(seq, n)
        assert compiled.triangle_counts(seq, n) == expected, (seq, n)
        assert _pykernels.triangle_counts(seq, n) == expected, (seq, n)


def test_triangle_counts_agree_long_sequence(compiled):
    # 400 entries per row pass a 64 KB counting chunk at every field width.
    rng = random.Random(5)
    for n in (101, 129, 32769):
        seq = [rng.randrange(n) for _ in range(400)]
        expected = literal_triangle_counts(seq, n)
        assert compiled.triangle_counts(seq, n) == expected, n
        assert _pykernels.triangle_counts(seq, n) == expected, n


def test_triangle_counts_memory_stays_linear():
    # 4.5 million entries: rows are counted in chunks, never all held at once.
    rng = random.Random(9)
    seq = [rng.randrange(35) for _ in range(3000)]
    tracemalloc.start()
    try:
        counts = _pykernels.triangle_counts(seq, 35)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 3000 * 3001 // 2
    assert peak < 1 << 20, peak


def test_search_agrees(compiled):
    # The compiled search is a literal full scan of all n**2 progressions,
    # so it answers even n too.
    for n in range(1, 16):
        for m in range(1, 40):
            assert compiled.search_balanced_ap(n, m) == literal_search(n, m), (n, m)


def test_closed_form_counts_match_row_by_row():
    rng = random.Random(43)
    cases = [case for case in progression_cases() if case[3] % 2]
    cases += [(0, 0, 1, 1), (0, 0, 2, 1), (0, 0, 17, 1), (4, 6, 1, 9), (4, 6, 2, 9)]
    # Lengths past n * ord_n(2), where the rows of a class repeat in full.
    for n in (3, 5, 7, 9, 11, 15, 17, 21):
        for _ in range(12):
            m = n * order_of_two(n) + rng.randint(1, 2 * n)
            cases.append((rng.randrange(n), rng.randrange(n), m, n))
    while len(cases) < 1500:
        n = rng.randrange(1, 62, 2)
        g = rng.choice([k for k in range(1, n + 1) if n % k == 0])
        d = g * rng.randrange(n) % n
        cases.append((rng.randrange(n), d, rng.randint(1, 3 * n), n))
    assert len(cases) >= 1200 and all(n % 2 for *_, n in cases)
    assert any(m > n * order_of_two(n) for _, _, m, n in cases)
    assert any(math.gcd(d, n) not in (1, n) for _, d, _, n in cases)
    assert {1, 2} <= {m for *_, m, n in cases if n > 1}
    assert any(n == 1 for *_, n in cases)
    for c, d, m, n in cases:
        k = min(order_of_two(n), m)
        assert _pykernels._doubling_period(n, m) == k, (n, m)
        counts = [0] * n
        _pykernels._add_progression(counts, c, d, m, n, k)
        expanded = [(c + j * d) % n for j in range(m)]
        assert counts == literal_triangle_counts(expanded, n), (c, d, m, n)


def test_search_counts_one_candidate_per_orbit(monkeypatch):
    # Every candidate adds its k = min(ord_n(2), m) row classes, so the
    # search counts calls // k candidates.  Orbits are enumerated by brute
    # force over all pairs with a unit step, under unit scaling and reversal.
    calls = [0]
    add_row_class = _pykernels._add_row_class

    def counted(*args):
        calls[0] += 1
        return add_row_class(*args)

    monkeypatch.setattr(_pykernels, "_add_row_class", counted)
    cases = witnessed = candidates = 0
    for n in range(1, 22, 2):
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        for m in range(1, 2 * n + 2):
            if m * (m + 1) // 2 % n:
                continue
            least = {}
            for c in range(n):
                for d in units:
                    c2, d2 = (c + (m - 1) * d) % n, -d % n
                    orbit = [(u * c % n, u * d % n) for u in units]
                    orbit += [(u * c2 % n, u * d2 % n) for u in units]
                    least[c, d] = min(orbit)
            calls[0] = 0
            found = _pykernels.search_balanced_ap(n, m)
            k = _pykernels._doubling_period(n, m)
            assert calls[0] % k == 0, (n, m)
            cases += 1
            candidates += calls[0] // k
            if found is not None:
                witnessed += 1
                assert least[found] == found, (n, m, found)
            # once for each orbit whose least pair is reached by the scan
            reached = {p for p in least.values() if found is None or p <= found}
            assert calls[0] // k == len(reached), (n, m)
    assert (cases, witnessed, candidates) == (51, 15, 301)


def test_backend_search_is_the_pure_one(monkeypatch):
    # steinhaus looks the kernel up on _pykernels at call time, so a
    # replacement there (the benchmark's tracer makes one) is what runs.
    calls = []
    monkeypatch.setattr(
        _pykernels, "search_balanced_ap", lambda n, m: calls.append((n, m)) or (0, 1)
    )
    assert steinhaus.search_balanced_ap(9, 17) == (0, 1)
    assert calls == [(9, 17)]


def test_scans_take_moduli_past_word_size():
    # the compiled twins stop at 64 bits; the scans ordlift runs do not
    n = (1 << 64) + 13
    assert _pykernels.order_scan(n - 1, n) == 2  # (-1)**2 = 1
    assert _pykernels.proj_order_scan(n - 1, n) == 1


def test_shipped_c_matches_pyx():
    # Cython echoes the source it compiles into " * <line>" comments of the
    # .c, marking the current line with "# <<<...", so every code line of
    # the .pyx from its first function on appears there verbatim until the
    # .pyx is edited without running `cython src/ordlift/_kernels.pyx`.
    pyx = (PACKAGE / "_kernels.pyx").read_text().splitlines()
    start = next(
        i for i, line in enumerate(pyx) if line.startswith("cdef inline u64 _mulmod")
    )
    code = [
        line.rstrip()
        for line in pyx[start:]
        if line.strip() and not line.lstrip().startswith("#")
    ]
    echoed = {
        re.sub(r"\s+# <+$", "", line[3:]).rstrip()
        for line in (PACKAGE / "_kernels.c").read_text().splitlines()
        if line.startswith(" * ")
    }
    stale = [line for line in code if line not in echoed]
    assert code and not stale, f"_kernels.c was not regenerated for: {stale[:5]}"
