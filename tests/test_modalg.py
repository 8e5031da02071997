from fractions import Fraction as F

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import Tensor3, vec
from hopfsmash.hopfcore import GroupTable, group_algebra
from hopfsmash.modalg import (
    ModuleAlgebraData,
    adjoint_module_algebra,
    is_H_simple,
    is_quantum_commutative,
    permutation_module_algebra,
    pointwise_algebra,
    separability,
    trivial_module_algebra,
    u_acts_trivially,
    verify_module_algebra,
    verify_separability,
)
from hopfsmash.qtriang import trivial_qt


def test_verify_permutation_action(m3):
    assert verify_module_algebra(m3).ok


def test_verify_adjoint_action(ks3):
    assert verify_module_algebra(adjoint_module_algebra(ks3)).ok


def test_fault_injected_action_fails(ks3, m3):
    dense = m3.action.dense()
    dense[1][0][dense[1][0].index(F(1))] = F(0)
    bad = ModuleAlgebraData(ks3, m3.A, Tensor3.from_dense(dense))
    rep = verify_module_algebra(bad)
    assert not rep.ok
    assert [(c.name, c.witness) for c in rep.failures()] == [
        ("action_module_law", (1, 1, 0)), ("unit_absorbed", (1,))]


def test_zero_unit_rejected(ks3, m3):
    from hopfsmash.hopfcore import StructureAlgebra
    bad_alg = StructureAlgebra(3, m3.A.mult, vec([0, 0, 0]))
    with pytest.raises(ValueError):
        ModuleAlgebraData(ks3, bad_alg, m3.action)


def test_quantum_commutative_reduces_to_commutativity(q_s3, m3, ks3):
    # commutative A with trivial R: true
    assert is_quantum_commutative(q_s3, m3) == (True, None)
    # noncommutative A with trivial R: false with witness
    adj = adjoint_module_algebra(ks3)
    ok, wit = is_quantum_commutative(q_s3, adj)
    assert not ok and wit is not None
    assert ks3.algebra.mul_row(wit[0], wit[1]) != ks3.algebra.mul_row(wit[1], wit[0])


def test_double_action_quantum_commutative(double_mod_z2):
    m, q = double_mod_z2
    assert is_quantum_commutative(q, m) == (True, None)


def test_separability_k3(m3):
    s = separability(m3)
    assert s.alpha == {0: 1, 1: 1, 2: 1}
    assert sorted(s.x.items()) == [((i, i), F(1)) for i in range(3)]
    assert verify_separability(m3, s).ok


def test_separability_kz2_group_algebra(kz2):
    # A = kZ2 as an algebra over the trivial host action
    m = trivial_module_algebra(kz2, kz2.algebra)
    s = separability(m)
    # Gram matrix of the regular trace is 2 I, so x = (e(x)e + g(x)g)/2
    assert sorted(s.x.items()) == [((0, 0), F(1, 2)), ((1, 1), F(1, 2))]
    assert s.alpha == {0: 2}


def test_separability_trivial():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    m = trivial_module_algebra(h, pointwise_algebra(1))
    s = separability(m)
    assert s.alpha == {0: 1}
    assert list(s.x.items()) == [((0, 0), F(1))]


def test_separability_refuses_singular_trace(kz2):
    # k[x]/(x^2): nilpotents kill the trace form
    mult = Tensor3.from_dense([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    from hopfsmash.hopfcore import StructureAlgebra
    a = StructureAlgebra(2, mult, vec([1, 0]))
    m = trivial_module_algebra(kz2, a)
    with pytest.raises(ValueError):
        separability(m)


def test_u_trivial_cases(q_s3, m3, double_mod_z2, kz2):
    assert u_acts_trivially(q_s3, m3) == (True, None)
    m, q = double_mod_z2
    assert u_acts_trivially(q, m) == (True, None)
    # u = g for the nontrivial triangular structure; the swap action moves it
    qm = dm.minus_r_z2(kz2)
    swap = dm.k2_module_algebra_over_z2(kz2)
    ok, wit = u_acts_trivially(qm, swap)
    assert not ok and wit is not None


def test_h_simple_transitive(m3):
    res = is_H_simple(m3)
    assert res.kind == "certified_simple"
    assert res.commutant_dim == 1


def test_h_simple_trivial(kz2):
    m = trivial_module_algebra(kz2, pointwise_algebra(1))
    assert is_H_simple(m).kind == "certified_simple"


def test_h_simple_witness_for_split_action(ks3, s3_table):
    # k^4 = k^2 (+) k^2 with S3 permuting only the first two coordinates
    # (through the sign of the permutation); e_2, e_3 are untouched
    perms_parity = []
    import itertools
    for p in itertools.permutations(range(3)):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        perms_parity.append(inv % 2)
    action = []
    for par in perms_parity:
        if par == 0:
            action.append([0, 1, 2, 3])
        else:
            action.append([1, 0, 2, 3])
    m = permutation_module_algebra(ks3, s3_table, action)
    res = is_H_simple(m)
    assert res.kind == "not_simple"
    assert res.witness_ideal is not None
    span = res.witness_ideal
    assert 0 < len(span) < 4
    # the witness is an exact H-stable ideal: closed under action and products
    from hopfsmash.exactlin import Subspace
    ideal = Subspace(span, 4)
    for v in span:
        for g in range(6):
            assert ideal.contains(m.action.act({g: F(1)}, v))
        for a in range(4):
            assert ideal.contains(m.A.mul_sparse({a: F(1)}, v))


def test_predicates_invariant_under_relabeling(s3_table):
    # permute both the group elements and the points; all predicates agree
    import itertools
    perms = list(itertools.permutations(range(3)))
    gperm = [0, 3, 4, 1, 2, 5]
    ginv = [gperm.index(i) for i in range(6)]
    t = s3_table.table
    relabeled = GroupTable.from_lists(
        [s3_table.elements[p] for p in gperm],
        [[ginv[t[gperm[i]][gperm[j]]] for j in range(6)] for i in range(6)])
    h2 = group_algebra(relabeled)
    action = [[perms[gperm[i]][x] for x in range(3)] for i in range(6)]
    m2 = permutation_module_algebra(h2, relabeled, action)
    q2 = trivial_qt(h2)
    assert is_quantum_commutative(q2, m2) == (True, None)
    assert u_acts_trivially(q2, m2) == (True, None)
    assert is_H_simple(m2).kind == "certified_simple"
    s = separability(m2)
    assert s.alpha == {0: 1, 1: 1, 2: 1}
