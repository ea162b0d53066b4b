"""Canonical ring of a k-th power Fermat-type curve family: differential
bases, character multiplicities, and exact degree-2 relation verification."""

import os
import sys

# Every product here is exact int64 arithmetic, which numpy runs in its own
# loops and never in BLAS.  Yet OpenBLAS starts nproc - 1 worker threads when
# it loads, and they busy-wait before they sleep.  So numpy is loaded with one
# thread, unless the caller chose a count or has loaded numpy already; the
# variable is then removed, so the caller's children do not inherit it.
if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .curve import (
    InsufficientPointsError,
    apply_group,
    basis_rank_check,
    full_rank_oversample,
    divisor_of_theta,
    sample_points,
    suitable_params,
)
from .ideal import (
    export_ideal,
    generate_binomials,
    generate_trinomials,
    verify_degree2_kernel,
)
from .indexsets import IndexSet, count_im, enumerate_im, standard_set_identity
from .params import (
    CurveParams,
    ParameterError,
    dim_vm,
    find_prime_and_root,
    genus,
    make_curve_params,
)
from .reps import mu_table, nu_closed, nu_table, syzygy_table

__version__ = "0.1.0"
