"""A mutation slice of verify's checks: named defects, applied by
monkeypatch, and the report flags that each one turns false in verify.

The span rank of check (b) is certified, not eliminated: the relations that
vanish in the symbolic check (a) bound each character's rank from above.
These defects break the relations, the multiplication map, the root of
unity, the closed-form nu, the inverses of the evaluation map or the
character labels, and each is still caught.  Each failing report,
its ranks included, equals the one made when every character block is
eliminated on its own (references.character_blocks_one_by_one).
"""

import json

import numpy as np
import pytest

import references
from gfcring import curve, ideal, reps
from gfcring import params as parameters
from gfcring.cli import main
from gfcring.indexsets import _lattice, ci_shifts

trinomial_rows, phi2_entries = ideal._trinomial_rows, ideal._phi2_entries
find_prime_and_root, nu_closed = parameters.find_prime_and_root, reps.nu_closed
pow_mod, character_of = curve._pow_mod, reps.character_of


def next_lambda(params):
    """lam_(i+1) in place of lam_i in the trinomials, cyclically."""
    fibers, coeff = trinomial_rows(params)
    lam = np.array(params.lam, dtype=np.int64) % params.p
    return fibers, np.column_stack((lam[ci_shifts(params.k, params.n)[:, 0] % (params.n - 1)],
                                    coeff[:, 1:]))


def unsigned_phi2(params):
    """phi2 without the sign (-1)^z of a fiber with z low coordinates."""
    row, fiber, value = phi2_entries(params)
    z = (_lattice(params.k, params.n, 2, 0)[0][:, 1:] < params.k - 1).sum(axis=1)
    return row, fiber, np.where(z[fiber] % 2, -value % params.p, value)


def off_by_one(params):
    """One trinomial's lam_i coefficient off by one."""
    fibers, coeff = trinomial_rows(params)
    coeff = coeff.copy()
    coeff[len(coeff) // 2, 0] += 1
    return fibers, coeff


def lam_on_up(params):
    """lam_i on the up-fiber t+(k,0,..) instead of on t: the fiber columns
    permuted to (1, 0, 2)."""
    fibers, coeff = trinomial_rows(params)
    return fibers[:, [1, 0, 2]], coeff


def zeta_one(k, min_bound):
    """The prime with 1 as its root of unity, of order 1, not k."""
    return find_prime_and_root(k, min_bound)[0], 1


def nu_plus(k, n, m, h):
    """The closed-form nu one too high."""
    return nu_closed(k, n, m, h) + 1


def inverse_exponent(base, e, p):
    """p - 3 in place of the Fermat exponent p - 2 of evaluation_matrix's
    inverses; no other power the package takes has exponent p - 2."""
    return pow_mod(base, e - 1 if e == p - 2 else e, p)


def character_sign(k, m, t):
    """+a in place of -a in a character's trailing components."""
    return ((t[0] + m) % k, *(aj % k for aj in t[1:]))


# Each defect: the modules whose binding it replaces, the name, the mutant.
TRINOMIALS = (ideal, references), "_trinomial_rows"
DEFECTS = {
    "next_lambda": (*TRINOMIALS, next_lambda),
    "unsigned_phi2": ((ideal, references), "_phi2_entries", unsigned_phi2),
    "off_by_one": (*TRINOMIALS, off_by_one),
    "lam_on_up": (*TRINOMIALS, lam_on_up),
    "zeta_one": ((parameters,), "find_prime_and_root", zeta_one),
    "nu_plus": ((reps,), "nu_closed", nu_plus),
    "inverse_exponent": ((curve,), "_pow_mod", inverse_exponent),
    "character_sign": ((reps, ideal, references), "character_of", character_sign),
}


def verify(capsys, k, n):
    code = main(["verify", "--k", str(k), "--n", str(n), "--seed", "1"])
    return code, capsys.readouterr().out


def false_flags(report):
    """The report's false flags (the _ok keys and passed), each per-prime
    flag named once."""
    flags = set()
    for rep in [report, *report["degree2"].values()]:
        flags |= {key for key, ok in rep.items()
                  if ok is False and (key.endswith("_ok") or key == "passed")}
    return sorted(flags)


# The flags that each defect turns false, per curve.  The point check misses
# the sign of phi2, which it never reads; the symbolic check catches every
# defect of the relations or of phi2.  One coefficient off by one at (2,5)
# also raises a character's span rank.  lam_i on the up-fiber is the one
# defect that check (d) catches too.  A root of unity of order 1 moves no
# point, and only the equivariance check, which asks for k distinct powers,
# sees it.  nu one too high shows only in the comparison of the span with
# mu - nu.  Wrong inverses move the values at points, which the point and
# equivariance checks read and the symbolic check does not.  Labels with +a
# misplace the span's characters, in the equivariance check and against
# mu - nu; at k = 2, -a = a, so that mutant is the program itself: EQUIVALENT,
# no flag false, and (4,3) stands in as its second curve.
KERNEL = ["passed", "point_kernel_ok", "symbolic_kernel_ok"]
EQUIVALENT = []
FALSE_FLAGS = {
    ("next_lambda", 3, 3): KERNEL,
    ("next_lambda", 2, 5): KERNEL,
    ("unsigned_phi2", 3, 3): ["passed", "symbolic_kernel_ok"],
    ("unsigned_phi2", 2, 5): ["passed", "symbolic_kernel_ok"],
    ("off_by_one", 3, 3): KERNEL,
    ("off_by_one", 2, 5): ["passed", "per_character_ok", "point_kernel_ok", "span_rank_ok",
                           "standard_count_ok", "symbolic_kernel_ok"],
    ("lam_on_up", 3, 3): KERNEL + ["trinomial_initial_ok"],
    ("lam_on_up", 2, 5): KERNEL + ["trinomial_initial_ok"],
    ("zeta_one", 3, 3): ["equivariance_ok", "passed"],
    ("zeta_one", 2, 5): ["equivariance_ok", "passed"],
    ("nu_plus", 3, 3): ["passed", "per_character_ok"],
    ("nu_plus", 2, 5): ["passed", "per_character_ok"],
    ("inverse_exponent", 3, 3): ["equivariance_ok", "passed", "point_kernel_ok"],
    ("inverse_exponent", 2, 5): ["equivariance_ok", "passed", "point_kernel_ok"],
    ("character_sign", 3, 3): ["equivariance_ok", "passed", "per_character_ok"],
    ("character_sign", 2, 5): EQUIVALENT,
    ("character_sign", 4, 3): ["equivariance_ok", "passed", "per_character_ok"],
}


@pytest.mark.parametrize("k,n,defect", [(k, n, defect) for defect, k, n in FALSE_FLAGS])
def test_each_defect_is_caught(capsys, monkeypatch, k, n, defect):
    modules, name, mutant = DEFECTS[defect]
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    code, out = verify(capsys, k, n)
    flags = FALSE_FLAGS[defect, k, n]
    assert (code, false_flags(json.loads(out))) == (1 if flags else 0, flags)
    monkeypatch.setattr(ideal, "_character_blocks", references.character_blocks_one_by_one)
    assert verify(capsys, k, n) == (code, out)
