"""gfcring never calls BLAS, so it loads numpy with one OpenBLAS thread."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfcring

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gfcring").glob("*.py"))

# The numpy routes into BLAS: its linear algebra and the float products.
# Integer `@` and matmul run in numpy's own loops.
BLAS_CALLS = {"dot", "vdot", "einsum", "tensordot"}
NUMPY = {"np", "numpy"}


def _float_type(name: str) -> bool:
    value = getattr(np, name, None)
    return isinstance(value, type) and issubclass(value, (np.floating, np.complexfloating))


def _float_code(code: str) -> bool:
    try:
        return np.dtype(code).kind in "fc"
    except TypeError:
        return False


def blas_routes(source: str) -> list[str]:
    """The names in `source` that reach BLAS: numpy's linalg, dot, einsum and
    tensordot, and any float or complex dtype, as a numpy type, a builtin or
    a dtype string.  The package's own `linalg` module is not one of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.startswith("numpy.linalg"):
                found.append(node.module)
            elif node.module == "numpy":
                found += [alias.name for alias in node.names
                          if alias.name == "linalg" or alias.name in BLAS_CALLS
                          or _float_type(alias.name)]
        elif isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and node.value.id in NUMPY
            if node.attr in BLAS_CALLS or on_numpy and (
                    node.attr == "linalg" or _float_type(node.attr)):
                found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in {"float", "complex"} | BLAS_CALLS:
            found.append(node.id)
        elif isinstance(node, ast.Call):
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr in {"astype", "dtype"}:
                dtypes += node.args[:1]
            found += [d.value for d in dtypes
                      if isinstance(d, ast.Constant) and isinstance(d.value, str)
                      and _float_code(d.value)]
    return sorted(found)


def test_the_scan_finds_every_blas_route():
    assert blas_routes("import numpy.linalg\nfrom numpy.linalg import matrix_rank\n"
                       "from numpy import linalg, einsum, float32, zeros, nothing\n") == [
        "einsum", "float32", "linalg", "numpy.linalg", "numpy.linalg"]
    assert blas_routes("np.linalg.solve(a, b)\nnumpy.tensordot(a, b)\na.dot(b)\n"
                       "x = np.double(1) + np.complex128(2)\n") == [
        "complex128", "dot", "double", "linalg", "tensordot"]
    assert blas_routes("a.astype(float)\nnp.zeros(3, dtype='f8')\nnp.dtype('complex64')\n"
                       "np.ones(2, dtype=complex)\n") == ["complex", "complex64", "f8", "float"]
    assert blas_routes("from .linalg import rank_mod_p\nfrom . import linalg\n"
                       "linalg.rank_mod_p(m, p)\ngfcring.linalg\na @ b\nnp.matmul(a, b)\n"
                       "np.zeros(3, dtype=np.int64)\nx.astype('i8')\nnp.floor_divide(a, b)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_package_takes_no_route_into_blas(path):
    assert blas_routes(path.read_text()) == []


# Each child reports its thread count, and whether its environment is still
# the one it started with, once gfcring has been imported or has run.
REPORT = """
import os, sys
start = dict(os.environ)
def report():
    print(len(os.listdir("/proc/self/task")), os.environ == start, file=sys.stderr)
"""
IMPORT = REPORT + "import gfcring\nreport()\n"
# python -m gfcring info --k 3 --n 3, reporting at exit
CLI = REPORT + """
import atexit, runpy
atexit.register(report)
sys.argv = ["gfcring", "info", "--k", "3", "--n", "3"]
runpy.run_module("gfcring", run_name="__main__", alter_sys=True)
"""
NUMPY_FIRST = REPORT + "import numpy\nimport gfcring\nreport()\n"

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="no /proc/self/task to count threads")


def run_child(code: str, **blas_threads) -> tuple[int, bool]:
    src = os.path.dirname(os.path.dirname(gfcring.__file__))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env.update(blas_threads, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    threads, unchanged = proc.stderr.split()
    return int(threads), unchanged == "True"


@needs_proc
@pytest.mark.parametrize("code", [IMPORT, CLI], ids=["import", "cli"])
def test_gfcring_loads_numpy_with_one_thread(code):
    assert run_child(code) == (1, True)


@needs_proc
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts one thread per CPU at most")
@pytest.mark.parametrize("code", [IMPORT, CLI], ids=["import", "cli"])
def test_a_callers_thread_count_is_honoured(code):
    assert run_child(code, OPENBLAS_NUM_THREADS="2") == (2, True)


@needs_proc
def test_numpy_loaded_first_is_left_alone():
    assert run_child(NUMPY_FIRST)[1]
