from fractions import Fraction as F

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import Tensor3, vec
from hopfsmash.hopfcore import GroupTable, NotSemisimple, StructureAlgebra, group_algebra
from hopfsmash.modalg import pointwise_algebra, trivial_module_algebra
from hopfsmash.qtriang import trivial_qt
from hopfsmash.repdim import (
    class_idempotents,
    dv_divisibility,
    fpdim_report,
    wedderburn_blocks,
)
from hopfsmash.report import HypothesisFailure
from hopfsmash.weakhopf import groupoid_wha
from reference import conjugacy_classes, pair_groupoid


def test_blocks_ks3(ks3):
    # enumeration oracle: the exact center has dimension 3 (= # classes) and
    # {1, 1, 2} is the unique 3-multiset with sum of squares 6
    assert len(ks3.algebra.center_basis()) == 3
    br = wedderburn_blocks(ks3.algebra)
    assert br.blocks == (1, 1, 2)
    assert len(br.blocks) == len(ks3.algebra.center_basis())
    assert sum(d * d for d in br.blocks) == ks3.dim


def test_blocks_smash(smash18):
    # exact center of k^3 # kS3 has dimension 2; 3^2 + 3^2 = 18 is the unique
    # 2-block solution
    assert len(smash18.carrier.center_basis()) == 2
    assert wedderburn_blocks(smash18.carrier).blocks == (3, 3)


def test_blocks_matrix_algebra():
    m2 = groupoid_wha(pair_groupoid(2))
    assert wedderburn_blocks(m2.algebra).blocks == (2,)
    m3 = groupoid_wha(pair_groupoid(3))
    assert wedderburn_blocks(m3.algebra).blocks == (3,)


def _exact_blocks(a):
    br = wedderburn_blocks(a)
    assert len(br.blocks) == len(a.center_basis())
    assert sum(d * d for d in br.blocks) == a.dim
    return br.blocks


def test_blocks_irrational_characters_kz5():
    # the central characters of kZ5 take the primitive 5th roots of unity:
    # no rational root splits the centre, yet the five blocks are exact
    assert _exact_blocks(group_algebra(dm.cyclic_table(5)).algebra) == (1, 1, 1, 1, 1)


def test_blocks_ks4():
    assert _exact_blocks(group_algebra(dm.symmetric_table(4)).algebra) == (1, 1, 2, 3, 3)


def test_blocks_double_s3(double_s3):
    # D(kS3) has 8 simple modules, two of them with characters in Q(omega)
    dd, _ = double_s3
    assert _exact_blocks(dd.algebra) == (1, 1, 2, 2, 2, 2, 3, 3)


def test_blocks_reseed_when_z_does_not_separate():
    # seed 63 draws the same coefficient for both idempotents of k x k, so
    # z is a scalar and the next seed is taken
    br = wedderburn_blocks(pointwise_algebra(2), seed=63)
    assert br.blocks == (1, 1)
    assert br.seed == 64


def test_blocks_deterministic(ks3):
    a = wedderburn_blocks(ks3.algebra, seed=7)
    b = wedderburn_blocks(ks3.algebra, seed=7)
    assert a == b


def test_blocks_reject_nonsemisimple():
    # k[x]/(x^2) has a radical
    mult = Tensor3.from_dense([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    a = StructureAlgebra(2, mult, vec([1, 0]))
    with pytest.raises(NotSemisimple):
        wedderburn_blocks(a)


def test_fpdim_s3_demo(sws18, m3):
    fp = fpdim_report(sws18.wha, m3)
    assert fp.report.ok
    assert fp.blocks == (3, 3)
    assert fp.fpdims == (1, 1)


def test_fpdim_z2_two_points(kz2, z2_table):
    from hopfsmash.modalg import separability
    from hopfsmash.smashcons import smash_algebra, smash_weak_structure
    m = dm.k2_module_algebra_over_z2(kz2)
    sws = smash_weak_structure(smash_algebra(m), trivial_qt(kz2), separability(m))
    fp = fpdim_report(sws.wha, m)
    assert fp.blocks == (2,)
    assert fp.fpdims == (1,)


def test_fpdim_trivial_coefficients(ks3, q_s3):
    # A = k: FPdim V = dim V, the ordinary case
    from hopfsmash.modalg import separability
    from hopfsmash.smashcons import smash_algebra, smash_weak_structure
    m = trivial_module_algebra(ks3, pointwise_algebra(1))
    sws = smash_weak_structure(smash_algebra(m), q_s3, separability(m))
    fp = fpdim_report(sws.wha, m)
    assert fp.blocks == (1, 1, 2)
    assert fp.fpdims == (1, 1, 2)


def test_fpdim_requires_h_simple(ks3, q_s3, sws18):
    from hopfsmash.modalg import adjoint_module_algebra
    adj = adjoint_module_algebra(ks3)
    with pytest.raises(HypothesisFailure) as ei:
        fpdim_report(sws18.wha, adj)
    assert "H-simple" in str(ei.value)


def test_class_idempotents_ks3(ks3, q_s3, ip_s3, bg_s3, s3_table):
    ci = class_idempotents(ks3, q_s3, ip_s3, bg_s3)
    assert ci.report.ok
    assert len(ci.idempotents) == 3
    # oracle: for a group algebra the minimal idempotents of C(H*) are the
    # conjugacy-class indicator functions
    expected = [{g: F(1) for g in cls} for cls in conjugacy_classes(s3_table)]
    assert sorted(ci.idempotents, key=sorted) == sorted(expected, key=sorted)
    assert sorted(len(b) for b in ci.blocks) == [1, 2, 3]


def test_class_idempotents_ks3_pinned(ks3, q_s3, ip_s3, bg_s3, structure_digest, dense):
    # exact idempotents and blocks, pinned: the splitting kernel must reproduce them
    ci = class_idempotents(ks3, q_s3, ip_s3, bg_s3)
    idempotents = tuple(dense(f, 6) for f in ci.idempotents)
    blocks = tuple(tuple(dense(v, 6) for v in blk) for blk in ci.blocks)
    assert structure_digest(idempotents, blocks) == "4dc6d7e7ef9e54c9"


def test_class_idempotents_kz2(kz2, q_z2, ip_z2):
    ci = class_idempotents(kz2, q_z2, ip_z2)
    assert len(ci.idempotents) == 2
    assert sorted(len(b) for b in ci.blocks) == [1, 1]


def test_class_idempotents_trivial():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    ci = class_idempotents(h, trivial_qt(h), __import__("hopfsmash.hopfcore",
                                                        fromlist=["integrals"]).integrals(h))
    assert len(ci.idempotents) == 1


def test_dv_divisibility_all_summands(ks3, q_s3, bg_s3, hr_decomposition):
    from hopfsmash.adjstable import yd_summand_from_block
    seen = []
    for blk in hr_decomposition.blocks:
        yd = yd_summand_from_block(ks3, blk, bg_s3)
        rep = dv_divisibility(yd, q_s3, bg_s3)
        assert rep.ok
        seen.append((len(blk), rep.find("divides").witness))
    assert sorted(seen) == [(1, (1, 1)), (2, (2, 2)), (3, (3, 3))]
