"""The H_R pipeline on one braided group: decompose_hr, psi_phi and
hr_dual_separability each store what they build in `bg.memo`, so a repeat
on the same bg returns the same object and a fresh bg rebuilds an equal one;
every function that takes (q, bg) refuses a bg transmuted from another R."""

import gc
import weakref
from fractions import Fraction as F

import pytest

from hopfsmash import adjstable, exactlin, hopfcore
from hopfsmash import demos as dm
from hopfsmash.adjstable import (decompose_hr, nd_transport_report, psi_phi,
                                 yd_summand_from_block, yd_to_comodule)
from hopfsmash.hopfcore import integrals
from hopfsmash.qtriang import (almost_triangular_equivalences, hr_dual_separability, transmute,
                               trivial_qt)
from hopfsmash.repdim import class_idempotents
from hopfsmash.report import HypothesisFailure

# each call runs one function on (q, bg), for a block of H_R under q's own
# transmutation
CALLS = {
    "psi_phi": lambda h, q, ip, bg, blk: psi_phi(blk, q, bg),
    "nd_transport_report": lambda h, q, ip, bg, blk: nd_transport_report(blk, q, ip, bg),
    "class_idempotents": lambda h, q, ip, bg, blk: class_idempotents(h, q, ip, bg),
    "almost_triangular_equivalences":
        lambda h, q, ip, bg, blk: almost_triangular_equivalences(q, bg),
    "hr_dual_separability": lambda h, q, ip, bg, blk: hr_dual_separability(q, ip, bg),
    "yd_to_comodule": lambda h, q, ip, bg, blk: yd_to_comodule(
        yd_summand_from_block(h, blk, transmute(q)), q, bg),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_bg_transmuted_from_another_r_is_refused(name):
    # kZ2 under the trivial R and under R_-: the same host, two QT structures
    h = dm.k_z2()
    ip = integrals(h)
    q_triv, q_minus = trivial_qt(h), dm.minus_r_z2(h)
    bg_triv, bg_minus = transmute(q_triv), transmute(q_minus)
    blk = decompose_hr(bg_triv).blocks[0]
    call = CALLS[name]
    call(h, q_triv, ip, bg_triv, blk)
    call(h, q_minus, ip, bg_minus, blk)
    with pytest.raises(ValueError, match="not transmuted from q"):
        call(h, q_triv, ip, bg_minus, blk)
    with pytest.raises(ValueError, match="not transmuted from q"):
        call(h, q_minus, ip, bg_triv, blk)


def test_a_repeat_on_the_same_bg_returns_the_stored_object(q_s3, ip_s3, transposition_block):
    bg = transmute(q_s3)
    assert decompose_hr(bg) is decompose_hr(bg)
    assert psi_phi(transposition_block, q_s3, bg) is psi_phi(transposition_block, q_s3, bg)
    # the key is the vectors' entries, not the objects that hold them
    copied = tuple(dict(u) for u in transposition_block)
    assert psi_phi(copied, q_s3, bg) is psi_phi(transposition_block, q_s3, bg)
    assert hr_dual_separability(q_s3, ip_s3, bg) is hr_dual_separability(q_s3, ip_s3, bg)


def test_a_fresh_bg_rebuilds_an_equal_result(q_s3, transposition_block, structure_digest):
    first = psi_phi(transposition_block, q_s3, transmute(q_s3))
    again = psi_phi(transposition_block, q_s3, transmute(q_s3))
    assert again is not first
    assert again.psi == first.psi and again.phi == first.phi
    assert again.nd.carrier.mult == first.nd.carrier.mult
    assert again.report.to_dict() == first.report.to_dict()
    assert structure_digest(again.psi.matrix, again.phi.matrix) == "9328ec19c4ab5b7c"


def test_a_reordered_basis_gets_its_own_result(q_s3, transposition_block):
    bg = transmute(q_s3)
    forward = psi_phi(transposition_block, q_s3, bg)
    backward = psi_phi(transposition_block[::-1], q_s3, bg)
    assert backward is not forward
    assert backward.dd.basis == tuple(transposition_block[::-1])
    assert forward.dd.basis == tuple(transposition_block)
    assert psi_phi(transposition_block, q_s3, bg) is forward


def test_a_refused_basis_is_not_stored(q_s3):
    bg = transmute(q_s3)
    not_closed = [{1: F(1)}, {2: F(1)}]
    for _ in range(2):
        with pytest.raises(HypothesisFailure, match="D-closed"):
            psi_phi(not_closed, q_s3, bg)
    assert bg.memo == {}


def test_nd_transport_is_the_same_after_psi_phi(q_s3, ip_s3, transposition_block):
    warm = transmute(q_s3)
    psi_phi(transposition_block, q_s3, warm)
    after = nd_transport_report(transposition_block, q_s3, ip_s3, warm).to_dict()
    alone = nd_transport_report(transposition_block, q_s3, ip_s3, transmute(q_s3)).to_dict()
    assert after == alone
    assert after["ok"]


def test_the_pipeline_derives_each_object_once(ks3, q_s3, ip_s3, transposition_block,
                                               count_calls):
    # subcoalgebra_data runs only in psi_phi, split only in decompose_hr,
    # casimir_failures on the 6-dimensional H_R^* only in hr_dual_separability,
    # and H^op is derived once for psi_phi on every block
    sub = count_calls(adjstable, "subcoalgebra_data")
    splits = count_calls(exactlin, "split")
    casimir = count_calls(hopfcore, "casimir_failures")
    ops = count_calls(hopfcore, "opposites")
    bg = transmute(q_s3)
    decompose_hr(bg)
    class_idempotents(ks3, q_s3, ip_s3, bg)
    hr_dual_separability(q_s3, ip_s3, bg)
    psi_phi(transposition_block, q_s3, bg)
    assert nd_transport_report(transposition_block, q_s3, ip_s3, bg).ok
    assert len(sub) == 1 and len(splits) == 1
    assert len([a for a in casimir if a.dim == ks3.dim]) == 1
    for block in decompose_hr(bg).blocks:
        psi_phi(block, q_s3, bg)
    assert len([h for h in ops if h is ks3]) == 1


def test_the_memo_dies_with_its_bg(q_s3, transposition_block):
    bg = transmute(q_s3)
    psi_phi(transposition_block, q_s3, bg)
    decompose_hr(bg)
    ref = weakref.ref(bg)
    del bg
    gc.collect()
    assert ref() is None
