"""The record types' contract: repr text, equality and hashing, immutability,
pickling, keyword construction; no throwaway records on the scalar paths;
the package's public names; README's examples; and the modules ``import ordlift`` and
``import ordlift.cli`` may load."""

import copy
import doctest
import math
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ordlift
from ordlift import arith, errors, laws, lifting, orders, steinhaus
from ordlift.steinhaus import ZnSequence

_LAW = "LawResult(law='x', checked=3, failed=1, first_counterexample='n=1')"

# (build the record, its keyword fields, its repr)
RECORDS = {
    "Factorization": (
        lambda: ordlift.factorize(360),
        dict(value=360, factors=((2, 3), (3, 2), (5, 1))),
        "Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))",
    ),
    "OrderRecord": (
        lambda: ordlift.mult_order(-3, 10),
        dict(modulus=10, base=7, order=4),
        "OrderRecord(modulus=10, base=7, order=4)",
    ),
    "BasePair": (
        lambda: ordlift.make_base_pair(24, 12),
        dict(n1=24, n2=12),
        "BasePair(n1=24, n2=12)",
    ),
    "LawResult": (
        lambda: ordlift.LawResult("x", 3, 1, "n=1"),
        dict(law="x", checked=3, failed=1, first_counterexample="n=1"),
        _LAW,
    ),
    "VerificationReport": (
        lambda: ordlift.VerificationReport(3, 2, (ordlift.LawResult("x", 3, 1, "n=1"),)),
        dict(n_max=3, a_max=2, laws=(ordlift.LawResult("x", 3, 1, "n=1"),)),
        f"VerificationReport(n_max=3, a_max=2, laws=({_LAW},))",
    ),
    "ZnSequence": (
        lambda: ordlift.ZnSequence(7, (1, 2, 3)),
        dict(modulus=7, elements=(1, 2, 3)),
        "ZnSequence(modulus=7, elements=(1, 2, 3))",
    ),
    "TriangleSummary": (
        lambda: ordlift.triangle(ordlift.ZnSequence(3, (1, 1))),
        dict(modulus=3, length=2, counts=(0, 2, 1), balanced=False),
        "TriangleSummary(modulus=3, length=2, counts=(0, 2, 1), balanced=False)",
    ),
}

names = pytest.mark.parametrize("name", sorted(RECORDS))


@names
def test_repr_is_unchanged(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text


@names
def test_equal_records_hash_equal(name):
    build = RECORDS[name][0]
    first, second = build(), build()
    assert first == second and hash(first) == hash(second)


@names
def test_records_are_tuples(name):
    build, fields, _ = RECORDS[name]
    record = build()
    assert record == tuple(fields.values())
    assert tuple(record) == tuple(fields.values())
    assert type(record)._fields == tuple(fields)


@names
def test_fields_are_read_only(name):
    build, fields, _ = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), 1)
    with pytest.raises(AttributeError):
        record.extra = 1


@names
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


@names
def test_keyword_construction(name):
    build, fields, _ = RECORDS[name]
    record = build()
    assert type(record)(**fields) == record
    for field, value in fields.items():
        assert getattr(record, field) == value


def test_zn_sequence_errors_and_len():
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
        ZnSequence(0, (0,))
    with pytest.raises(ValueError, match=r"^sequence must have length >= 1$"):
        ZnSequence(modulus=5, elements=())
    with pytest.raises(ValueError, match=r"^element 5 not a residue mod 5$"):
        ZnSequence(5, (1, 5))
    assert len(ZnSequence(7, (1, 2, 3))) == 3


def test_zn_sequence_replace_validates():
    seq = ZnSequence(7, (1, 2, 3))
    assert seq._replace(elements=(4,)) == ZnSequence(7, (4,))
    with pytest.raises(ValueError, match=r"^element 9 not a residue mod 7$"):
        seq._replace(elements=(9,))


@pytest.mark.parametrize("n1, n2, reason", [
    (24, 6, ordlift.InvalidPairError.REASON_TWO_ADIC),
    (63, 7, ordlift.InvalidPairError.REASON_RADICAL),
])
def test_base_pair_every_route_validates(n1, n2, reason):
    # An unchecked tuple of the pair's fields, built past BasePair.__new__.
    bad = tuple.__new__(ordlift.BasePair, (n1, n2))
    valid = ordlift.make_base_pair(n1, n1)
    routes = {
        "_replace": lambda: valid._replace(n2=n2),
        "_make": lambda: ordlift.BasePair._make((n1, n2)),
        "pickle": lambda: pickle.loads(pickle.dumps(bad)),
        "copy": lambda: copy.copy(bad),
        "deepcopy": lambda: copy.deepcopy(bad),
    }
    for route, build in routes.items():
        with pytest.raises(ordlift.InvalidPairError) as e:
            build()
        assert e.value.reason == reason, route


def test_valid_base_pair_survives_every_route():
    pair = ordlift.make_base_pair(24, 12)
    assert pair._replace(n1=48) == ordlift.make_base_pair(48, 12)
    assert ordlift.BasePair._make(pair) == pair
    for back in (copy.copy(pair), copy.deepcopy(pair)):
        assert back == pair and repr(back) == repr(pair)
        assert type(back) is ordlift.BasePair


def _no_record(*args, **kwargs):
    raise AssertionError("a record was built")


def test_scalar_paths_build_no_record(monkeypatch):
    arith._factor_pairs.cache_clear()
    orders._order_value.cache_clear()
    monkeypatch.setattr(arith, "Factorization", _no_record)
    monkeypatch.setattr(orders, "OrderRecord", _no_record)
    for n in (1, 2, 4, 24, 45, 360, 1001):
        arith.radical(n)
        arith.euler_phi(n)
        arith.divisors(n)
        lifting.canonical_base(n)
        lifting.admissible_bases(n)
        for a in (-7, -1, 1, 7, 13):
            if math.gcd(a, n) != 1:
                continue
            lifting.order_fast(a, n)
            orders.proj_order(a, n)
            orders.alpha(a, n)
            orders.beta(a, n)
            lifting.lift_order(lifting.make_base_pair(n, lifting.canonical_base(n)), a)
    assert lifting.alpha_prime_power(3, 7, 2) == 6


def test_scalar_paths_keep_their_errors():
    for fn in (arith.radical, arith.euler_phi, arith.divisors, lifting.canonical_base):
        with pytest.raises(ValueError, match=r"^factorize requires n >= 1, got 0$"):
            fn(0)
    with pytest.raises(ordlift.NotCoprimeError, match=r"gcd\(6, 10\) != 1"):
        lifting.order_fast(6, 10)
    with pytest.raises(ordlift.NotCoprimeError, match=r"gcd\(6, 10\) != 1"):
        orders.proj_order(6, 10)
    with pytest.raises(ValueError, match=r"^multiplicative order requires n >= 1"):
        lifting.order_fast(3, 0)


def test_public_names_are_the_modules_lists():
    modules = (arith, errors, laws, lifting, orders, steinhaus)
    expected = {"kernel_backend"}.union(*(m.__all__ for m in modules))
    assert set(ordlift.__all__) == expected
    assert len(ordlift.__all__) == len(expected)  # no name listed twice
    for m in modules:
        for name in m.__all__:
            assert getattr(ordlift, name) is getattr(m, name)
    namespace = {}
    exec("from ordlift import *", namespace)
    assert set(namespace) - {"__builtins__"} == expected
    assert ordlift.kernel_backend == "pure-python"


def test_readme_examples_pass_as_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert attempted >= 7 and failed == 0


def _modules_after(code: str) -> set[str]:
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(ordlift.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_footprint():
    # Only what the import adds counts: the site may preload any of these.
    added = _modules_after("import ordlift.cli") - _modules_after("")
    assert "ordlift.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "json"}


# The oracles, a triangle of each route and two searches.
_KERNEL_CALLS = """(
    [ordlift.alpha_oracle(a, n) for n in range(1, 80) for a in range(-6, 7)],
    [ordlift.beta_oracle(a, n) for n in range(1, 80) for a in range(-6, 7)],
    ordlift.triangle(ordlift.ap_sequence(2, 5, 40, 9)),
    ordlift.triangle(ordlift.ZnSequence(6, (1, 4, 0, 3, 5, 2, 2))),
    ordlift.search_balanced_ap(13, 26),
    ordlift.search_balanced_ap(9, 18),
)"""


def test_import_loads_no_compiled_kernels(tmp_path):
    # A _kernels module that breaks on import: ordlift must load neither it
    # nor the tracer's two re-exports, _backend and _pykernels, and must give
    # the same answers as here.
    shutil.copytree(Path(ordlift.__file__).parents[1], tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    (tmp_path / "src" / "ordlift" / "_kernels.py").write_text(
        'raise RuntimeError("ordlift._kernels must not be imported")\n')
    code = (f"import sys, ordlift\nprint(repr({_KERNEL_CALLS}))\n"
            "print(sorted({'ordlift._kernels', 'ordlift._backend', 'ordlift._pykernels'}"
            " & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    here = repr(eval(_KERNEL_CALLS, {"ordlift": ordlift}))
    assert proc.stdout.splitlines() == [here, "[]"]
