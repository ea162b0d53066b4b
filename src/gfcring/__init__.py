"""Canonical ring of a k-th power Fermat-type curve family: differential
bases, character multiplicities, and exact degree-2 relation verification."""

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
