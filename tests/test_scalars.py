"""Every scalar the constructors return is an exact `int` or `Fraction`: never
a float (an int / int that escaped `qdiv`) and never a bool (a comparison
stored as a coefficient). On kS3, its double and k^3 # kS3 every value is
integral, so every value is an `int`: the exact arithmetic stays on ints."""

from fractions import Fraction

import pytest

from hopfsmash import demos as dm
from hopfsmash.adjstable import psi_phi
from hopfsmash.exactlin import LinearMap, Tensor3, TensorElem
from hopfsmash.hopfcore import group_algebra
from hopfsmash.smashcons import phi_embed


def scalars(*parts):
    """The coefficients of Tensor3 cells, TensorElem terms, LinearMap columns
    and sparse vectors, and the entries of dense units and counits."""
    for x in parts:
        if isinstance(x, Tensor3):
            d0, d1, _ = x.dims
            yield from (c for i in range(d0) for j in range(d1) for _, c in x.row(i, j))
        elif isinstance(x, TensorElem):
            yield from x.terms.values()
        elif isinstance(x, LinearMap):
            yield from (c for col in x.cols for c in col.values())
        elif isinstance(x, dict):
            yield from x.values()
        else:
            yield from x


def hopf_parts(h):
    return h.mult, h.unit, h.comult, h.counit, h.antipode


@pytest.fixture(scope="module")
def results(q_s3, double_s3, ip_s3, bg_s3, smash18, sws18, b54, hr_decomposition,
            transposition_block):
    dd, q = double_s3
    f, image, _ = phi_embed(sws18, b54)
    pp = psi_phi(transposition_block, q_s3, bg_s3)
    return {
        "group_algebra": hopf_parts(group_algebra(dm.s3_table())),
        "drinfeld_double": (*hopf_parts(dd), q.R, q.Rinv),
        "integrals": (ip_s3.Lambda, ip_s3.lam),
        "transmute": (bg_s3.adjoint_action, bg_s3.comult_R, bg_s3.antipode_R),
        "smash_algebra": (smash18.carrier.mult, smash18.carrier.unit),
        "smash_weak_structure": hopf_parts(sws18.wha),
        "build_B": (*hopf_parts(b54.wha), b54.rqt.Rw, b54.rqt.Rw_bar),
        "phi_embed": (f, *image),
        "psi_phi": (pp.psi, pp.phi, pp.nd.carrier.mult, pp.nd.carrier.unit),
        "decompose_hr": tuple(v for blk in hr_decomposition.blocks for v in blk),
    }


@pytest.mark.parametrize("name", ["group_algebra", "drinfeld_double", "integrals", "transmute",
                                  "smash_algebra", "smash_weak_structure", "build_B",
                                  "phi_embed", "psi_phi", "decompose_hr"])
def test_scalars_are_int_or_fraction(results, name):
    values = list(scalars(*results[name]))
    assert values
    assert {type(c) for c in values} <= {int, Fraction}
    # on these worlds every value is integral, and each one stays an int
    assert all(type(c) is int for c in values)
