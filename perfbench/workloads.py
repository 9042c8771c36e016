"""The three workloads: seeded inputs, the library calls and CLI session each
runs, and the expected result of every call from ``reference``.

A job is plain data: ``ops`` is a list of ``[name, args, expected, fault]``
and ``cli`` a list of ``{"argv", "kind", "expect", "fault"}``.  ``fault``
marks the calls on ψ12 that fail because of the known primality fault (see
README.md); a mismatch anywhere else makes the run incorrect.

The seed draws the inputs; the shape of each workload (how many calls of
each kind, at what sizes) is fixed, so that runs on different seeds do the
same amount of work.
"""

from __future__ import annotations

import math
import random

import reference as ref

WORKLOADS = ("desk-grid", "wide-moduli", "steinhaus-search")

# desk-grid: every n <= DESK_N, bases -DESK_A..DESK_A.
DESK_N, DESK_A = 600, 8
VERIFY_ARGS = ("300", "10")

# wide-moduli: (bits, exponent) of each prime.  Every modulus has at least
# two primes of 21 bits or more, so trial division always runs its full range,
# and every such prime but the largest has at most 24 bits, so each Pollard
# rho split is cheap: the cost of a modulus varies little with the seed.
# Primes of 36 bits or more get a 21- to 26-bit prime in p - 1.
WIDE_SHAPES = (
    ((22, 1), (42, 1)),
    ((21, 1), (23, 1), (24, 1)),
    ((16, 1), (16, 1), (22, 1), (36, 1)),
    ((12, 3), (22, 1), (40, 1)),
    ((24, 1), (48, 1)),
    ((18, 2), (23, 1), (36, 1)),
    ((21, 1), (22, 1), (23, 1), (24, 1)),
    ((14, 1), (22, 1), (24, 1), (40, 1)),
    ((23, 1), (52, 1)),
    ((22, 2), (40, 1)),
)
WIDE_BASES = 3
# Fixed bases for ψ12: 2 and 3 are strong liars, 41 is not.
PSI12_BASES = (2, 3, 41)
PSI12_CLI_BASE = 41

# steinhaus-search: odd n whose four paper lengths each cost the pure-Python
# search under about 0.2 s (n = 29 and n >= 37 take seconds), and the first
# admissible length without a witness for the n where a full n**2 scan stays
# that cheap.
STEIN_N = (9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 31, 33, 35)
STEIN_NONE_MAX_N = 25
STEIN_CLI = ((19, "alpha"), (25, "beta-1"), (33, "alpha-1"), (35, "beta"), (21, None), (25, None))


def build(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return {"desk-grid": _desk, "wide-moduli": _wide, "steinhaus-search": _stein}[
        workload
    ](rng)


# --- desk-grid ---------------------------------------------------------------


def _desk(rng) -> dict:
    ops = []
    ns = list(range(1, DESK_N + 1))
    rng.shuffle(ns)
    for n in ns:
        bases = ref.admissible_bases(n)
        ops.append(["admissible_bases", [n], bases, False])
        a_range = list(range(-DESK_A, DESK_A + 1))
        rng.shuffle(a_range)
        for a in a_range:
            v = ref.desk_values(a, n)
            for f in ("alpha", "beta"):
                ops.append([f, [a, n], v[f], False])
                ops.append([f + "_fast", [a, n], v[f], False])
            if "order" not in v:
                continue
            for f in ("order", "proj_order"):
                ops.append(["mult_order" if f == "order" else f, [a, n], v[f], False])
                ops.append([f + "_fast", [a, n], v[f], False])
            for n2 in bases:
                for f in ("order", "alpha", "beta"):
                    ops.append(["lift_" + f, [n, n2, a], v[f], False])
    grid = range(-DESK_A, DESK_A + 1)
    table = ["--n-min", "1", "--n-max", str(DESK_N), "--a-min", str(-DESK_A),
             "--a-max", str(DESK_A)]
    cli = [
        {"argv": ["table", "--function", f, "--format", fmt, *table], "kind": "table",
         "expect": [[ref.desk_values(a, n)[f] for a in grid] for n in range(1, DESK_N + 1)],
         "fault": False}
        for f, fmt in (("alpha", "text"), ("beta", "csv"))
    ]
    cli.append({"argv": ["verify", *VERIFY_ARGS, "--workers", "1"], "kind": "verify",
                "expect": 15, "fault": False})
    return {"ops": ops, "cli": cli}


# --- wide-moduli -------------------------------------------------------------


def wide_moduli(rng) -> list[tuple[int, dict[int, int], dict[int, dict[int, int]]]]:
    """(n, factorization, factorization of p - 1 per prime) for every shape."""
    out = []
    for shape in WIDE_SHAPES:
        while True:
            factors, pm1 = {}, {}
            for bits, k in shape:
                p, fac = ref.wide_prime(rng, bits, medium=bits >= 36)
                factors[p], pm1[p] = k, fac
            if len(factors) == len(shape):
                break
        out.append((math.prod(p**k for p, k in factors.items()), factors, pm1))
    return out


def _wide(rng) -> dict:
    moduli = [(n, f, pm1, False) for n, f, pm1 in wide_moduli(rng)]
    moduli.append((ref.PSI12, {p: 1 for p in ref.PSI12_FACTORS}, ref.PSI12_FACTORS, True))
    ops, cli = [], []
    for n, factors, pm1, psi in moduli:
        for p in sorted(factors):
            ops.append(["is_prime", [p], True, False])
        ops.append(["is_prime", [n], False, psi])
        ops.append(["factorize", [n], sorted([p, k] for p, k in factors.items()), psi])
        if psi:
            bases = PSI12_BASES
        else:
            bases = []
            while len(bases) < WIDE_BASES:
                a = rng.randrange(2, 10**6)
                if math.gcd(a, n) == 1 and a not in bases:
                    bases.append(a)
        for a in bases:
            v = ref.wide_values(a, n, factors, pm1)
            liar = pow(a, n - 1, n) == 1
            for f, key in (("mult_order", "order"), ("order_fast", "order"),
                           ("alpha_fast", "alpha"), ("beta_fast", "beta")):
                ops.append([f, [a, n], v[key], psi and not liar])
        a = PSI12_CLI_BASE if psi else bases[0]
        cli.append({"argv": ["eval", "order", str(a), str(n)], "kind": "eval",
                    "expect": ref.wide_order(a, factors, pm1), "fault": psi})
    return {"ops": ops, "cli": cli}


# --- steinhaus-search --------------------------------------------------------


def paper_lengths(n: int) -> dict[str, int]:
    """The four lengths alpha(2,n)*n, alpha(2,n)*n - 1, beta(2,n)*n and
    beta(2,n)*n - 1, which always have a balanced progression for odd n."""
    v = ref.desk_values(2, n)
    return {"alpha": v["alpha"] * n, "alpha-1": v["alpha"] * n - 1,
            "beta": v["beta"] * n, "beta-1": v["beta"] * n - 1}


def first_none_length(n: int) -> int | None:
    """Smallest admissible m in [n, 3n) (n | m(m+1)/2) with no balanced
    progression; None when every admissible length there has one."""
    for m in range(n, 3 * n):
        if (m * (m + 1) // 2) % n == 0 and not ref.balanced_aps(n, m):
            return m
    return None


def _search_expect(n: int, m: int):
    hits = ref.balanced_aps(n, m)
    return list(hits[0]) if hits else None


def _stein(rng) -> dict:
    ops = []
    ns = list(STEIN_N)
    rng.shuffle(ns)
    for n in ns:
        lengths = sorted(set(paper_lengths(n).values()))
        for m in lengths:
            hit = _search_expect(n, m)
            if hit is None:
                raise AssertionError(f"paper length {m} mod {n} has no balanced progression")
            ops.append(["search_balanced_ap", [n, m], hit, False])
        none_m = first_none_length(n) if n <= STEIN_NONE_MAX_N else None
        if none_m:
            ops.append(["search_balanced_ap", [n, none_m], None, False])
        # One random sequence and one random progression, at fixed lengths.
        seq = [rng.randrange(n) for _ in range(lengths[-1])]
        c, d = rng.randrange(n), rng.randrange(n)
        ap = [(c + k * d) % n for k in range(lengths[0])]
        for seq, counts in ((seq, ref.triangle_counts(seq, n)),
                            (ap, ref.ap_counts(c, d, len(ap), n))):
            ops.append(["triangle", [n, seq], [min(counts) == max(counts), counts], False])
    cli = []
    for n, which in STEIN_CLI:
        m = paper_lengths(n)[which] if which else first_none_length(n)
        cli.append({"argv": ["steinhaus", "search", str(n), str(m)], "kind": "search",
                    "expect": _search_expect(n, m), "fault": False})
    return {"ops": ops, "cli": cli}
