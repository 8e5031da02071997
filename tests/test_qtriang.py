from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmash import demos as dm
from hopfsmash.exactlin import Tensor3, TensorElem, vec
from hopfsmash.hopfcore import (
    GroupTable,
    StructureAlgebra,
    drinfeld_double,
    dual_hopf,
    group_algebra,
    hexagon_sides,
    sp_add,
    sparse_outer,
)
from hopfsmash.modalg import ModuleAlgebraData, adjoint_module_algebra, is_quantum_commutative
from hopfsmash.qtriang import (
    BraidedGroupData,
    QTStructure,
    adjoint_action_tensor,
    classify_triangularity,
    double_braiding_failures,
    drinfeld_element,
    hr_dual_separability,
    hr_star_algebra,
    muger_membership,
    almost_triangular_equivalences,
    qt_structure,
    transmute,
    trivial_qt,
    unverified_qt,
    verify_braided_group,
    verify_qt,
)
from hopfsmash.report import HypothesisFailure
from hopfsmash.weakhopf import WeakHopfData, WeakQTStructure, verify_weak_qt
from test_sparse_kernels import _tensor_mul_reference


def test_trivial_r_passes(ks3, q_s3):
    assert verify_qt(q_s3).ok


def test_double_r_passes(double_z2):
    _, q = double_z2
    assert verify_qt(q).ok


def test_fake_r_fails_with_witness(kz2):
    # wrong sign flavor of the nontrivial kZ2 R-matrix: not invertible
    half = F(1, 2)
    fake = TensorElem.from_entries((2, 2), [((0, 0), half), ((0, 1), half),
                                            ((1, 0), half), ((1, 1), half)])
    entries = []
    for (a, b), c in fake.items():
        for r, w in kz2.antipode.cols[a].items():
            entries.append(((r, b), c * w))
    rinv = TensorElem.from_entries((2, 2), entries)
    rep = verify_qt(QTStructure(kz2, fake, rinv))
    assert not rep.ok
    assert rep.failures()
    with pytest.raises(HypothesisFailure):
        qt_structure(kz2, fake)


def _unit_padded_hexagon_reference(alg, coal, r):
    """(Delta (x) id)(R), R^13 R^23, (id (x) Delta)(R), R^13 R^12 with each leg
    padded by every term of the unit and multiplied in A (x) A (x) A."""
    algs3 = (alg, alg, alg)
    one = alg.unit_sparse
    r13, r23, r12, d_id, id_d = {}, {}, {}, {}, {}
    for (a, b), c in r.items():
        for u, cu in one.items():
            sp_add(r13, (a, u, b), c * cu)
            sp_add(r23, (u, a, b), c * cu)
            sp_add(r12, (a, b, u), c * cu)
        for j, k, w in coal.comul_row(a):
            sp_add(d_id, (j, k, b), c * w)
        for j, k, w in coal.comul_row(b):
            sp_add(id_d, (a, j, k), c * w)
    return (d_id, _tensor_mul_reference(algs3, r13, r23),
            id_d, _tensor_mul_reference(algs3, r13, r12))


@cache
def _cyclic_double(n):
    return drinfeld_double(group_algebra(dm.cyclic_table(n)))


_deltas = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_hexagon_sides_match_unit_padded_products(n, data):
    dd, q = _cyclic_double(n)
    m = dd.dim
    idx = st.integers(0, m - 1)
    r = dict(q.R.terms)
    for _ in range(data.draw(st.integers(0, 3))):
        sp_add(r, (data.draw(idx), data.draw(idx)), data.draw(_deltas))
    entries = [(i, j, k, c) for i in range(m) for j in range(m)
               for k, c in dd.algebra.mul_row(i, j)]
    unit = list(dd.unit)
    one = [i for i, c in enumerate(unit) if c != 0]
    for _ in range(data.draw(st.integers(0, 3))):
        # a perturbation on a unit term's row breaks the unit law
        i = data.draw(st.sampled_from(one)) if data.draw(st.booleans()) else data.draw(idx)
        entries.append((i, data.draw(idx), data.draw(idx), data.draw(_deltas)))
    if data.draw(st.booleans()):
        unit[data.draw(idx)] += data.draw(_deltas)
    alg = StructureAlgebra(m, Tensor3.from_entries((m, m, m), entries), tuple(unit))
    assert hexagon_sides(alg, dd.coalgebra, r) == \
        _unit_padded_hexagon_reference(alg, dd.coalgebra, r)


def test_fault_injected_r_fails_delta_tensor_id(double_z2):
    # 2R still intertwines the coproduct but is not (Delta (x) id)-compatible:
    # (Delta (x) id)(2R) = 2 R^13 R^23 != 4 R^13 R^23
    dd, q = double_z2
    twice = TensorElem.from_entries((4, 4), [(k, 2 * c) for k, c in q.R.items()])
    reports = (verify_qt(QTStructure(dd, twice, q.Rinv)),
               verify_weak_qt(WeakQTStructure(WeakHopfData.from_hopf(dd), twice, q.Rinv)))
    for rep in reports:
        assert rep.find("intertwines_comult").passed
        assert not rep.find("delta_tensor_id").passed
        assert not rep.find("id_tensor_delta").passed


def test_drinfeld_element_trivial(q_s3, ks3):
    d = drinfeld_element(q_s3)
    assert d.u == ks3.algebra.unit_sparse
    assert d.s_invariant and d.central


def test_drinfeld_element_double_z2(double_z2):
    _, q = double_z2
    d = drinfeld_element(q)
    # frozen: u = d_e >< e + d_g >< g in the (a * 2 + b) codec
    assert d.u == {0: 1, 3: 1}
    assert d.s_invariant and d.central


def test_drinfeld_element_minus_r(kz2):
    q = dm.minus_r_z2(kz2)
    d = drinfeld_element(q)
    assert d.u == {1: 1}  # u = g
    assert d.s_invariant and d.central


def test_classify_trivial_and_minus(q_s3, kz2):
    assert classify_triangularity(q_s3).kind == "triangular"
    assert classify_triangularity(dm.minus_r_z2(kz2)).kind == "triangular"


def test_classify_double_z2(double_z2):
    _, q = double_z2
    cls = classify_triangularity(q)
    # commutative host, nontrivial R21R: almost-triangular but not triangular
    assert cls.kind == "almost_triangular_strict"
    assert cls.in_center_tensor_h and cls.in_h_tensor_center


def test_classify_double_s3(double_s3):
    _, q = double_s3
    cls = classify_triangularity(q)
    assert cls.kind == "quasi_triangular_only"
    assert cls.in_center_tensor_h == cls.in_h_tensor_center


def test_classify_invariant_under_relabeling(s3_table):
    # relabel the kS3 basis by a transposition of group elements
    perm = [0, 2, 1, 3, 5, 4]
    t = s3_table.table
    inv = [perm.index(i) for i in range(6)]
    relabeled = GroupTable.from_lists(
        [s3_table.elements[p] for p in perm],
        [[inv[t[perm[i]][perm[j]]] for j in range(6)] for i in range(6)])
    h2 = group_algebra(relabeled)
    assert classify_triangularity(trivial_qt(h2)).kind == "triangular"


def test_transmute_trivial_r_collapses(q_s3, ks3):
    bg = transmute(q_s3)
    assert bg.comult_R == ks3.comult
    assert bg.antipode_R == ks3.antipode


def test_transmute_adjoint_is_conjugation(q_s3, s3_table):
    bg = transmute(q_s3)
    for g in range(6):
        for x in range(6):
            target = s3_table.table[s3_table.table[g][x]][s3_table.inv(g)]
            assert bg.adjoint_action.row(g, x) == ((target, F(1)),)


def test_transmute_double_z2(double_z2):
    _, q = double_z2
    bg = transmute(q)
    assert verify_braided_group(bg).ok


@pytest.mark.parametrize("name, pin", [("kS3", "21c2b18cee5ba3a4"), ("D(kZ2)", "c071b28e70b0668e"),
                                       ("D(kS3)", "e1042b9e7731c8d3")])
def test_transmute_tensors_pinned(name, pin, q_s3, double_z2, double_s3, structure_digest):
    q = {"kS3": q_s3, "D(kZ2)": double_z2[1], "D(kS3)": double_s3[1]}[name]
    bg = transmute(q)
    assert structure_digest(bg.adjoint_action, bg.comult_R, bg.antipode_R.matrix) == pin


def test_muger_trivial_r(q_s3, m3):
    assert muger_membership(q_s3, m3) == (True, None)


def test_muger_adjoint_trivial_r(q_s3, ks3):
    m = adjoint_module_algebra(ks3)
    assert muger_membership(q_s3, m) == (True, None)


def test_muger_false_for_double_action(kz2, double_mod_z2):
    m, q = double_mod_z2
    member, wit = muger_membership(q, m)
    # frozen by hand: (R_2^2 R_1^1).g (x) R_2^1 R_1^2 = g (x) (eps >< g) != g (x) 1
    assert member is False
    assert wit == (1,)


def test_hr_dual_separability_kz2(kz2, ip_z2, q_z2):
    x, rep = hr_dual_separability(q_z2, ip_z2)
    assert rep.ok
    assert sorted(x.items()) == [((0, 0), F(1)), ((1, 1), F(1))]


def test_hr_dual_separability_ks3(q_s3, ip_s3, bg_s3):
    x, rep = hr_dual_separability(q_s3, ip_s3, bg_s3)
    assert rep.ok
    assert sorted(x.items()) == [((i, i), F(1)) for i in range(6)]


def test_equivalences_trivial_cases(q_s3, q_z2, bg_s3):
    rep = almost_triangular_equivalences(q_s3, bg_s3)
    assert rep.ok
    assert all(rep.find(n).passed for n in
               ("cond2_almost_triangular", "cond3_hr_dual_quantum_commutative",
                "cond4_adjoint_in_muger_center"))
    assert almost_triangular_equivalences(q_z2).ok


def test_equivalences_consistency_on_doubles(double_z2, double_s3):
    for _, q in (double_z2, double_s3):
        rep = almost_triangular_equivalences(q)
        assert rep.find("conditions_agree").passed
    # and the concrete values: D(kZ2) almost-triangular, D(kS3) not
    assert almost_triangular_equivalences(double_z2[1]).find("cond2_almost_triangular").passed
    assert not almost_triangular_equivalences(double_s3[1]).find("cond2_almost_triangular").passed


def _equivalence_checks(cond2, cond3, cond4):
    """The four checks of the report; each condition is (status, witness)."""
    names = ("cond2_almost_triangular", "cond3_hr_dual_quantum_commutative",
             "cond4_adjoint_in_muger_center")
    checks = [{"axiom": name, "status": status, **({"witness": wit} if wit else {}),
               "informational": True}
              for name, (status, wit) in zip(names, (cond2, cond3, cond4))]
    return checks + [{"axiom": "conditions_agree", "status": "pass"}]


def test_equivalences_pinned_on_doubles(double_z2, double_s3):
    abelian = _equivalence_checks(("pass", None), ("pass", None), ("pass", None))
    s3 = _equivalence_checks(("fail", None), ("fail", [1, 8]), ("fail", [1]))
    for q, checks in ((double_z2[1], abelian), (_cyclic_double(3)[1], abelian),
                      (double_s3[1], s3)):
        assert almost_triangular_equivalences(q).to_dict() == {
            "subject": "almost_triangular_equivalences", "ok": True, "checks": checks}


def _right_action_on_dual_reference(bg, f, a):
    """f <<- e_a with <f <<- e_a, e_l> = <f, e_a .ad e_l>, as a dense vector."""
    n = bg.host.host.dim
    out = []
    for l in range(n):
        img = bg.adjoint_action.act({a: F(1)}, {l: F(1)})
        out.append(sum((c * f[k] for k, c in img.items()), F(0)))
    return tuple(out)


def test_dual_right_action_table_matches_the_pairing(double_z2, bg_s3):
    for bg in (transmute(double_z2[1]), bg_s3):
        n = bg.host.host.dim
        table = bg.dual_right_action
        for a in range(n):
            for g in range(n):
                row = dict(table.row(a, g))
                dense = tuple(row.get(l, F(0)) for l in range(n))
                assert dense == _right_action_on_dual_reference(bg, vec([int(i == g)
                                                                         for i in range(n)]), a)


@pytest.mark.parametrize("host", ["kS3", "(kS3)*"])
def test_dual_right_action_matches_the_table_loop(host, ks3):
    # the nested-dict table dual_right_action used to be, kept as the
    # reference.  The property reads the adjoint action tensor alone, so on
    # (kS3)*, which carries no R-matrix, a braided group that is never
    # verified serves
    h = {"kS3": ks3, "(kS3)*": dual_hopf(ks3)}[host]
    n = h.dim
    one = h.algebra.unit_sparse
    ad = adjoint_action_tensor(h)
    r = TensorElem.from_entries((n, n), sparse_outer(one, one).items())
    bg = BraidedGroupData(unverified_qt(h, r), ad, None, None)
    table = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for l in range(n):
            for g, c in ad.row(a, l):
                table[a][g][l] = c
    assert all(dict(bg.dual_right_action.row(a, g)) == table[a][g]
               for a in range(n) for g in range(n))
    # (kS3)* is commutative: its adjoint action is eps(a) e_l, which the swap fixes
    assert (bg.dual_right_action != ad) == (host == "kS3")


def _qc_first_failure(mult, act, terms):
    """First (a, b) in row-major order with e_a e_b != sum c (x . e_b)(y . e_a)
    over the terms (x, y, c), by dense sums; None when there is none."""
    n = len(mult)
    for a in range(n):
        for b in range(n):
            rhs = [0] * n
            for x, y, c in terms:
                for i, u in enumerate(act[x][b]):
                    for j, v in enumerate(act[y][a]):
                        if u and v:
                            for k in range(n):
                                rhs[k] += c * u * v * mult[i][j][k]
            if list(mult[a][b]) != rhs:
                return (a, b)
    return None


def _moved_entry(t, acting):
    """t with the last nonzero entry of t[acting] moved to the next target index."""
    cells = t.dense()
    x, y = max((x, y) for x, row in enumerate(cells[acting]) for y, c in enumerate(row) if c)
    d = t.dims[2]
    cells[acting][x][(y + 1) % d] += cells[acting][x][y]
    cells[acting][x][y] = 0
    return Tensor3.from_dense(cells)


def test_quantum_commutativity_fault_twins(double_z2, ks3, q_s3, m3):
    # cond3 on D(kZ2): H_R^* quantum commutative under R^21 and the right
    # action, that is f g = sum (g <<- R^1)(f <<- R^2); one entry of the dual
    # action moved makes it fail at the first pair a dense scan finds
    q = double_z2[1]
    bg = transmute(q)
    assert almost_triangular_equivalences(q, bg).find("cond3_hr_dual_quantum_commutative").passed
    (r1, _), _ = next(iter(q.R.items()))    # the first leg of R's first term
    moved = _moved_entry(bg.dual_right_action, r1)
    twin = BraidedGroupData(q, bg.adjoint_action, bg.comult_R, bg.antipode_R)
    twin.__dict__["dual_right_action"] = moved    # what the cached property would hold
    cond3 = almost_triangular_equivalences(q, twin).find("cond3_hr_dual_quantum_commutative")
    wit = _qc_first_failure(hr_star_algebra(bg).mult.dense(), moved.dense(),
                            [(a, b, c) for (a, b), c in q.R.items()])
    assert wit is not None
    assert not cond3.passed and cond3.witness == wit

    # k^3 # kS3: a b = (R^2 . b)(R^1 . a) holds; with trivial R only the unit
    # acts, so the twin moves an entry of the unit's action
    assert is_quantum_commutative(q_s3, m3) == (True, None)
    moved = _moved_entry(m3.action, ks3.unit.index(1))
    wit = _qc_first_failure(m3.A.mult.dense(), moved.dense(),
                            [(b, a, c) for (a, b), c in q_s3.R.items()])
    assert wit is not None
    assert is_quantum_commutative(q_s3, ModuleAlgebraData(ks3, m3.A, moved)) == (False, wit)


def _braid_list_failures(alg, r, action, vectors, delta_one):
    """double_braiding_failures as it ran before reading R^21 R: the left side
    summed over the |R|^2 pairs of terms of R, (b2 a1) . v (x) a2 b1."""
    braids = [(alg.mul_sparse({b2: 1}, {a1: 1}), alg.mul_sparse({a2: 1}, {b1: 1}), c1 * c2)
              for (a1, b1), c1 in r.items() for (a2, b2), c2 in r.items()]
    out = []
    for i, v in enumerate(vectors):
        lhs: dict = {}
        for hh, hh2, c12 in braids:
            for key, c in sparse_outer(action.act(hh, v), hh2).items():
                sp_add(lhs, key, c12 * c)
        rhs: dict = {}
        for (a, b), c in delta_one.items():
            for k, ck in action.act({a: 1}, v).items():
                sp_add(rhs, (k, b), c * ck)
        if lhs != rhs:
            out.append((i,))
    return out


@pytest.mark.parametrize("name, failing", [("double_z2", 0), ("double_s3", 35)])
def test_double_braiding_failures_match_the_braid_list(request, name, failing):
    # the adjoint module of D(H) over D(H) itself
    dd, q = request.getfixturevalue(name)
    ad = adjoint_action_tensor(dd)
    one = dd.algebra.unit_sparse
    args = (dd.algebra, q.R, ad, [{a: 1} for a in range(dd.dim)], sparse_outer(one, one))
    found = list(double_braiding_failures(*args))
    assert found == _braid_list_failures(*args)
    assert len(found) == failing
