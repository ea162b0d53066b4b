"""Canonical ring of a k-th power Fermat-type curve family: differential
bases, character multiplicities, and exact degree-2 relation verification."""

from .curve import (
    AffinePoint,
    InsufficientPointsError,
    apply_group,
    basis_rank_check,
    full_rank_oversample,
    divisor_of_dx,
    divisor_of_theta,
    divisor_of_x,
    divisor_of_y,
    evaluate_theta,
    sample_points,
    suitable_params,
)
from .ideal import (
    Relation,
    compare_monomials,
    export_ideal,
    generate_binomials,
    generate_trinomials,
    parse_ideal_json,
    phi2_matrix,
    reduce_to_basis,
    span_rank_by_character,
    tau,
    verify_degree2_kernel,
)
from .indexsets import (
    IndexSet,
    count_im,
    count_partitions,
    enumerate_ci,
    enumerate_im,
    enumerate_jd,
    member_im,
    minkowski_di1,
    standard_set_identity,
)
from .params import (
    CurveParams,
    ParameterError,
    dim_vm,
    find_prime_and_root,
    genus,
    make_curve_params,
)
from .reps import (
    action_exponent,
    mu,
    mu_table,
    nu_closed,
    nu_table,
    syzygy_multiplicity,
    syzygy_table,
)

__version__ = "0.1.0"
