"""Acceptance criteria, one test per criterion, each printing a pass line.

Every check is exact, denominators and Wedderburn block sizes included. The
big Heisenberg case (dimension 216) carries a 10-minute budget and typically
runs in seconds.
"""

import time

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import Subspace
from hopfsmash.hopfcore import verify_hopf
from hopfsmash.modalg import adjoint_module_algebra
from hopfsmash.qtriang import (
    hr_dual_separability,
    almost_triangular_equivalences,
)
from hopfsmash.report import HypothesisFailure
from reference import span_of


def _announce(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_smash_wha_centerpiece(sws18):
    rep = sws18.report
    assert rep.ok
    required = [
        "wha.wba.comult_multiplicative", "wha.wba.unit_weak_comult_order1",
        "wha.wba.unit_weak_comult_order2", "wha.wba.weak_counit_identity_1",
        "wha.wba.weak_counit_identity_2", "wha.antipode_source",
        "wha.antipode_target", "wha.antipode_triple",
        "eps_s_closed_form", "eps_t_closed_form",
        "helper_eq1_1", "helper_eq1_2", "helper_eq1_3", "helper_eq1_4",
    ]
    for name in required:
        assert rep.find(name).passed, name
    _announce(1, "k^3 # kS3 weak Hopf axioms, counital closed forms and "
                 "helper identities hold exactly")


def test_criterion_2_groupoid_example(s3_table):
    from hopfsmash.smashcons import groupoid_case_study
    cs = groupoid_case_study(s3_table, dm.natural_point_action(3))
    assert cs.report.ok
    assert cs.t == 3
    assert len(cs.stabilizer) == 2
    for name in ("units.algebra_map", "units.unit_preserved", "units.injective",
                 "centralizer_is_stabilizer_algebra",
                 "c.algebra_map", "c.unit_preserved", "c.injective", "iso_bijective",
                 "iso.algebra_map", "iso.unit_preserved", "matrix_units_grouplike"):
        assert cs.report.find(name).passed, name
    _announce(2, "S3 on 3 points: t = 3, |G_1| = 2, exact matrix units, "
                 "centralizer ~ kZ2, A#H ~ M_3(k) (x) kZ2")


def test_criterion_3_fpdim(sws18, m3):
    from hopfsmash.repdim import fpdim_report, wedderburn_blocks
    alg = sws18.wha.algebra
    br = wedderburn_blocks(alg)
    assert br.blocks == (3, 3)
    assert len(br.blocks) == len(alg.center_basis())
    assert sum(d * d for d in br.blocks) == alg.dim
    fp = fpdim_report(sws18.wha, m3)
    assert fp.report.ok
    assert fp.fpdims == (1, 1)
    _announce(3, "exact blocks {3, 3} (two blocks = dim Z, 9 + 9 = 18), dim A = 3 "
                 "divides both, FPdim = 1 for both simples")


def test_criterion_4_b_embedding(b54, sws18, q_s3, m3):
    from hopfsmash.smashcons import phi_embed, rb_in_image_iff_muger
    from hopfsmash.weakhopf import verify_weak_hopf, verify_weak_qt
    assert verify_weak_hopf(b54.wha).ok
    assert verify_weak_qt(b54.rqt).ok
    f, image, rep = phi_embed(sws18, b54)
    assert rep.ok
    for name in ("morphism.algebra_map", "morphism.coalgebra_map",
                 "morphism.antipode_commuting", "morphism.injective",
                 "image_equals_equalizer"):
        assert rep.find(name).passed, name
    assert rb_in_image_iff_muger(b54, image, q_s3, m3) == (True, True)
    _announce(4, "B passes weak Hopf + weak QT exactly; phi is a weak Hopf "
                 "monomorphism onto the equalizer; R_B membership <=> Mueger")


def test_criterion_5_adjoint_stable_pipeline(transposition_block, q_s3, bg_s3, ks3):
    from hopfsmash.adjstable import (adjoint_stable_algebra, psi_phi)
    from hopfsmash.exactlin import Tensor3
    from hopfsmash.adjstable import ComoduleData
    pp = psi_phi(transposition_block, q_s3, bg_s3)
    assert pp.nd.carrier.dim == 18
    assert pp.psi.compose(pp.phi).is_identity()
    assert pp.phi.compose(pp.psi).is_identity()
    # W = k.(single transposition): 2 * 3 = 6 * 1
    tr_idx = next(i for v in transposition_block if len(v) == 1 for i in v)
    w1 = ComoduleData(bg_s3.braided_coalgebra, 1,
                      Tensor3.from_entries((1, 6, 1), [(0, tr_idx, 0, 1)]))
    n1 = adjoint_stable_algebra(w1, ks3, bg_s3)
    assert n1.carrier.dim * 3 == 6 * 1
    # W = D: 18 * 3 = 6 * 9
    assert pp.nd.carrier.dim * 3 == 6 * 9
    _announce(5, "Psi/Phi mutually inverse on the dim-18 carrier; "
                 "dim N_W . dim D = dim H . (dim W)^2 for W = k.(12) and W = D")


def test_criterion_6_decomposition(hr_decomposition, ks3, q_s3, ip_s3, bg_s3):
    from hopfsmash.repdim import class_idempotents
    assert sorted(len(b) for b in hr_decomposition.blocks) == [1, 2, 3]
    assert hr_decomposition.report.ok
    ci = class_idempotents(ks3, q_s3, ip_s3, bg_s3)
    assert ci.report.ok
    assert len(ci.idempotents) == 3
    assert ci.report.find("central_in_hr_star").passed
    assert ci.report.find("hit_spaces_match").passed
    # the class-idempotent hit spaces are the decomposition's blocks
    dec_spaces = [span_of(Subspace(b, 6)) for b in hr_decomposition.blocks]
    assert len(ci.blocks) == len(dec_spaces)
    assert all(span_of(Subspace(b, 6)) in dec_spaces for b in ci.blocks)
    _announce(6, "H_R(kS3) = blocks {1, 2, 3}; 3 exact central idempotents of "
                 "H_R^* with matching hit subspaces")


def test_criterion_7_almost_triangular_suite(q_s3, q_z2, ip_s3, bg_s3,
                                             transposition_block, hr_decomposition,
                                             double_z2, double_s3):
    from hopfsmash.adjstable import nd_transport_report
    for q in (q_s3, q_z2, double_z2[1], double_s3[1]):
        rep = almost_triangular_equivalences(q)
        assert rep.find("conditions_agree").passed
    x, xrep = hr_dual_separability(q_s3, ip_s3, bg_s3)
    assert xrep.find("swap_symmetric").passed
    assert xrep.find("idempotent_in_enveloping_algebra").passed
    nd = nd_transport_report(transposition_block, q_s3, ip_s3, bg_s3, hr_decomposition)
    assert nd.ok
    assert nd.find("nd_is_almost_triangular").passed
    for name in ("cond2_z_in_ccHs_tensor_H", "cond3_z_in_H_tensor_ccHt",
                 "cond4_both", "cond5_cHs_in_muger_center",
                 "cond6_z_central_in_corner"):
        assert nd.find(f"nd_at.{name}").passed, name
    assert nd.find("nd_at.conditions_agree").passed
    _announce(7, "the three almost-triangularity conditions agree on all "
                 "demos; x symmetric and idempotent; N_D certified "
                 "almost-triangular with all five weak conditions true")


def test_criterion_8_heisenberg(kz2, ks3, double_z2, double_s3):
    from hopfsmash.smashcons import double_smash_decomposition
    rep = double_smash_decomposition(kz2, double_z2)
    assert rep.ok
    t0 = time.time()
    rep = double_smash_decomposition(ks3, double_s3)
    elapsed = time.time() - t0
    assert rep.ok
    # C is the whole centralizer of the Heisenberg part at dim 216 as well
    assert rep.find("C_equals_full_centralizer").passed
    assert elapsed < 600, f"kS3 case took {elapsed:.0f}s, over the 10-minute budget"
    _announce(8, f"H # D(H) ~ Heisenberg(H^cop) (x) H exactly for kZ2 (dim 8) "
                 f"and kS3 (dim 216, {elapsed:.1f}s)")


def test_criterion_9_divisibility(ks3, q_s3, bg_s3, hr_decomposition):
    from hopfsmash.adjstable import yd_summand_from_block
    from hopfsmash.repdim import dv_divisibility
    witnessed = []
    for blk in hr_decomposition.blocks:
        yd = yd_summand_from_block(ks3, blk, bg_s3)
        rep = dv_divisibility(yd, q_s3, bg_s3)
        assert rep.ok
        witnessed.append(rep.find("divides").witness)
    assert sorted(witnessed) == [(1, 1), (2, 2), (3, 3)]
    _announce(9, "dim D_V | dim V on all three Yetter-Drinfeld summands "
                 "of kS3 (1|1, 2|2, 3|3)")


def test_criterion_10_differential_and_guards(kz2, ks3, q_s3, double_mod_z2):
    from hopfsmash.modalg import separability as sep_of
    from hopfsmash.smashcons import (groupoid_case_study, smash_algebra,
                                     smash_qt, smash_weak_structure)
    from hopfsmash.weakhopf import (WeakHopfData, verify_weak_bialgebra,
                                    verify_weak_hopf)
    # weak verifiers degenerate to the ordinary ones on Hopf inputs
    from hopfsmash.hopfcore import dual_hopf
    for h in (kz2, ks3, dual_hopf(ks3)):
        assert verify_hopf(h).ok
        w = WeakHopfData.from_hopf(h)
        assert verify_weak_bialgebra(w).ok and verify_weak_hopf(w).ok

    # QC guard
    adj = adjoint_module_algebra(ks3)
    with pytest.raises(HypothesisFailure) as ei:
        smash_weak_structure(smash_algebra(adj), q_s3, sep_of(adj))
    assert "quantum-commutativity" in str(ei.value) and ei.value.witness is not None

    # u-triviality guard
    qm = dm.minus_r_z2(kz2)
    swap = dm.k2_module_algebra_over_z2(kz2)
    with pytest.raises(HypothesisFailure) as ei:
        smash_weak_structure(smash_algebra(swap), qm, sep_of(swap))
    assert "drinfeld-element-acts-trivially" in str(ei.value)

    # Mueger guard (honest non-member input, no fault injection needed)
    m, q = double_mod_z2
    sws8 = smash_weak_structure(smash_algebra(m), q, sep_of(m))
    with pytest.raises(HypothesisFailure) as ei:
        smash_qt(sws8)
    assert "muger-center-membership" in str(ei.value)

    # transitivity guard with the orbit decomposition as witness
    action = [row + [3] for row in dm.natural_point_action(3)]
    with pytest.raises(HypothesisFailure) as ei:
        groupoid_case_study(dm.s3_table(), action)
    assert "transitive-action" in str(ei.value)
    assert (3,) in ei.value.witness
    _announce(10, "weak verifiers agree with Hopf verifiers; every guard "
                  "(QC, u-trivial, Mueger, transitivity) refuses with a "
                  "named hypothesis and witness")
