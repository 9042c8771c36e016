"""Both kernel backends on identical inputs.

``build`` compiles the shipped ``src/ordlift/_kernels.c`` with gcc into a
temporary directory under the benchmark's output directory, never under
``src/``, and loads it from there without touching ordlift's own dispatch.
``compare`` times its four kernels against ``_pykernels`` and checks that
the results are equal.
"""

from __future__ import annotations

import importlib.util
import math
import shutil
import subprocess
import sysconfig
import tempfile
import time
from pathlib import Path

KERNELS = ("order_scan", "proj_order_scan", "triangle_counts", "search_balanced_ap")


def build(root: Path, out_dir: Path):
    """(module, None) on success, (None, reason) when it cannot be built."""
    source = root / "src" / "ordlift" / "_kernels.c"
    include = Path(sysconfig.get_paths()["include"])
    gcc = shutil.which("gcc")
    if not source.is_file():
        return None, f"{source.relative_to(root)} is missing"
    if gcc is None:
        return None, "gcc is not installed"
    if not (include / "Python.h").is_file():
        return None, f"Python headers are missing ({include})"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="kernels-", dir=out_dir))
    target = tmp / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [gcc, "-O2", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            return None, "gcc failed: " + proc.stderr.strip().splitlines()[-1]
        spec = importlib.util.spec_from_file_location("_kernels", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def inputs(rng) -> dict[str, list[tuple]]:
    """Identical argument lists for both backends."""
    scans = []
    while len(scans) < 400:
        n = rng.randrange(3, 2001)
        a = rng.randrange(2, n)
        if math.gcd(a, n) == 1:
            scans.append((a, n))
    tri = []
    for _ in range(20):
        n = rng.randrange(3, 102, 2)
        m = rng.randrange(200, 600)
        tri.append(([rng.randrange(n) for _ in range(m)], n))
    searches = [(15, 30), (21, 42), (13, 26), (25, 50), (17, 34), (19, 38)]
    return {"order_scan": scans, "proj_order_scan": scans,
            "triangle_counts": tri, "search_balanced_ap": searches}


def time_calls(fn, calls) -> tuple[float, list]:
    """Median microseconds per call, and the results."""
    times, results = [], []
    for args in calls:
        t0 = time.perf_counter_ns()
        results.append(fn(*args))
        times.append(time.perf_counter_ns() - t0)
    times.sort()
    return times[len(times) // 2] / 1e3, results


def compare(pykernels, compiled, rng) -> tuple[dict[str, float], bool]:
    """Per-layer kernel metrics, and whether both backends agreed."""
    metrics, agree = {}, True
    for name, calls in inputs(rng).items():
        py_us, py_out = time_calls(getattr(pykernels, name), calls)
        metrics[f"kernels.{name}.py_us"] = py_us
        if compiled is not None:
            c_us, c_out = time_calls(getattr(compiled, name), calls)
            metrics[f"kernels.{name}.compiled_us"] = c_us
            agree &= [_plain(x) for x in py_out] == [_plain(x) for x in c_out]
    return metrics, agree


def _plain(x):
    return list(x) if isinstance(x, (list, tuple)) else x
