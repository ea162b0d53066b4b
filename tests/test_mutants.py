"""A mutation slice of the degree-2 checks: named defects, applied by
monkeypatch, and the report flags that each one turns false in verify.

The span rank of check (b) is certified, not eliminated: the relations that
vanish in the symbolic check (a) bound each character's rank from above.
These defects break the relations or the multiplication map, and each is
still caught.  Each failing report, its ranks included, equals the one
made when every character block is eliminated on its own
(references.character_blocks_one_by_one).
"""

import json

import numpy as np
import pytest

import references
from gfcring import ideal
from gfcring.cli import main
from gfcring.indexsets import _lattice, ci_shifts

trinomial_rows, phi2_entries = ideal._trinomial_rows, ideal._phi2_entries


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


DEFECTS = {
    "next_lambda": ("_trinomial_rows", next_lambda),
    "unsigned_phi2": ("_phi2_entries", unsigned_phi2),
    "off_by_one": ("_trinomial_rows", off_by_one),
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


# The flags that each defect turns false.  The point check misses the sign
# of phi2, which it never reads; the symbolic check catches every defect.
# One coefficient off by one at (2,5) also raises a character's span rank.
KERNEL = ["passed", "point_kernel_ok", "symbolic_kernel_ok"]
FALSE_FLAGS = {
    ("next_lambda", 3, 3): KERNEL,
    ("next_lambda", 2, 5): KERNEL,
    ("unsigned_phi2", 3, 3): ["passed", "symbolic_kernel_ok"],
    ("unsigned_phi2", 2, 5): ["passed", "symbolic_kernel_ok"],
    ("off_by_one", 3, 3): KERNEL,
    ("off_by_one", 2, 5): ["passed", "per_character_ok", "point_kernel_ok", "span_rank_ok",
                           "standard_count_ok", "symbolic_kernel_ok"],
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("k,n", [(3, 3), (2, 5)])
def test_each_defect_is_caught(capsys, monkeypatch, k, n, defect):
    name, mutant = DEFECTS[defect]
    for module in (ideal, references):
        monkeypatch.setattr(module, name, mutant)
    code, out = verify(capsys, k, n)
    assert code == 1 and false_flags(json.loads(out)) == FALSE_FLAGS[defect, k, n]
    monkeypatch.setattr(ideal, "_character_blocks", references.character_blocks_one_by_one)
    assert verify(capsys, k, n) == (code, out)
