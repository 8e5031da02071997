import random
from fractions import Fraction as F

import pytest

from hopfsmash import demos as dm
from hopfsmash import smashcons
from hopfsmash.exactlin import LinearMap, Tensor3, TensorElem
from hopfsmash.hopfcore import (
    GroupTable,
    HopfData,
    StructureAlgebra,
    algebra_map_failures,
    certified_scan,
    co_opposite,
    drinfeld_double,
    dual_hopf,
    group_algebra,
    sp_add,
    sparse_outer,
    tensor_algebra,
    tensor_map_failures,
)
from hopfsmash.modalg import (
    ModuleAlgebraData,
    adjoint_module_algebra,
    permutation_module_algebra,
    pointwise_algebra,
    separability,
    trace_form,
    trivial_module_algebra,
)
from hopfsmash.qtriang import trivial_qt, unverified_qt
from hopfsmash.report import HypothesisFailure
from hopfsmash.smashcons import (
    build_B,
    double_module_algebra,
    double_module_spot_check,
    double_smash_decomposition,
    groupoid_case_study,
    phi_embed,
    rb_in_image_iff_muger,
    smash_algebra,
    smash_qt,
    smash_weak_structure,
    theta_embed,
)
from reference import include_a, is_commutative


def test_smash_dimensions(smash18):
    assert smash18.carrier.dim == 18
    assert smash18.na == 3 and smash18.nh == 6


def test_smash_k3s3_tensors_pinned(smash18, structure_digest):
    # pinned from the build that recomputed a (e_p . b) for every (i, j)
    assert structure_digest(smash18.carrier.mult, smash18.carrier.unit) == "7f9f8e59620a9db6"


def test_smash_with_trivial_coefficients_is_h(ks3):
    m = trivial_module_algebra(ks3, pointwise_algebra(1))
    s = smash_algebra(m)
    assert s.carrier.dim == 6
    # 1 # h |-> h identifies the carrier with H on the nose
    assert s.carrier.mult == ks3.mult
    assert s.carrier.unit == ks3.unit


def test_smash_adjoint_kz2_commutative(kz2):
    m = adjoint_module_algebra(kz2)
    s = smash_algebra(m)
    assert s.carrier.dim == 4
    assert is_commutative(s.carrier)


def test_smash_weak_structure_centerpiece(sws18):
    rep = sws18.report
    assert rep.ok
    for name in ("wha.antipode_source", "wha.antipode_target", "wha.antipode_triple",
                 "eps_s_closed_form", "eps_t_closed_form",
                 "helper_eq1_1", "helper_eq1_2", "helper_eq1_3", "helper_eq1_4",
                 "delta_one_idempotent", "target_is_A_smash_1", "source_is_Rtwisted_A"):
        assert rep.find(name).passed, name


def test_smash_counit_value(sws18, smash18):
    # eps(e_1 # g) = <alpha, e_1> eps(g) = 1 for every group element g
    for hh in range(6):
        assert sws18.wha.counit[smash18.flat(0, hh)] == 1


def test_smash_guard_quantum_commutativity(ks3, q_s3):
    adj = adjoint_module_algebra(ks3)
    s = smash_algebra(adj)
    sep = separability(adj)
    with pytest.raises(HypothesisFailure) as ei:
        smash_weak_structure(s, q_s3, sep)
    assert "quantum-commutativity" in str(ei.value)


def test_smash_guard_u_triviality(kz2):
    qm = dm.minus_r_z2(kz2)
    swap = dm.k2_module_algebra_over_z2(kz2)
    s = smash_algebra(swap)
    sep = separability(swap)
    with pytest.raises(HypothesisFailure) as ei:
        smash_weak_structure(s, qm, sep)
    assert "drinfeld-element-acts-trivially" in str(ei.value)


@pytest.mark.parametrize("construction", ["smash_weak_structure", "build_B"])
@pytest.mark.parametrize("antipode", ["identity", "zero"])
def test_smash_guard_host_is_hopf(antipode, construction, ks3, m3, sep3):
    # kS3 with S = id or S = 0 is no Hopf algebra; k^3 is still a module
    # algebra over it, and an unverified R reaches the one gate of A # H and
    # B, which names the host first, so no axiom of B is reported as failed
    anti = {"identity": LinearMap.identity(ks3.dim),
            "zero": LinearMap(ks3.dim, ks3.dim, [{}] * ks3.dim)}[antipode]
    bad = HopfData(ks3.algebra, ks3.coalgebra, anti)
    assert bad.report.failures()[0].name == "antipode_left"
    m = ModuleAlgebraData(bad, m3.A, m3.action)
    q = unverified_qt(bad, TensorElem.from_entries((6, 6), [((0, 0), 1)]))
    build = {"smash_weak_structure": lambda: smash_weak_structure(smash_algebra(m), q, sep3),
             "build_B": lambda: build_B(m, q, sep3)}[construction]
    with pytest.raises(HypothesisFailure) as ei:
        build()
    violated = ["host-is-hopf"]
    if antipode == "zero" and construction == "smash_weak_structure":
        # u = S(R^2) R^1 is zero too, and only A # H asks for u . a = a
        violated.append("drinfeld-element-acts-trivially")
    assert ei.value.hypothesis == "; ".join(violated)
    assert ei.value.witness[0] == {"identity": (3,), "zero": (0,)}[antipode]
    with pytest.raises(HypothesisFailure, match="hopf:antipode_left"):
        trivial_qt(bad)


def test_smash_qt_trivial_r_is_delta_one(sws18):
    wq, rep = smash_qt(sws18)
    assert rep.ok
    assert wq.Rw.terms == sws18.wha.delta_one
    assert rep.find("triangular_propagates").passed


def test_smash_qt_degenerate_coefficients(double_z2, kz2):
    # A = k: the smash degenerates to H and the weak R-matrix is R itself
    dd, q = double_z2
    m = trivial_module_algebra(dd, pointwise_algebra(1))
    s = smash_algebra(m)
    sws = smash_weak_structure(s, q, separability(m))
    wq, rep = smash_qt(sws)
    assert rep.ok
    assert wq.Rw == q.R


def test_smash_qt_muger_guard(kz2, double_mod_z2):
    m, q = double_mod_z2
    s = smash_algebra(m)
    sws = smash_weak_structure(s, q, separability(m))
    assert sws.report.ok  # the weak Hopf structure itself exists (dim 8)
    with pytest.raises(HypothesisFailure) as ei:
        smash_qt(sws)
    assert "muger-center-membership" in str(ei.value)


def test_theta_embed_trivial_coefficients(ks3):
    m = trivial_module_algebra(ks3, pointwise_algebra(1))
    s = smash_algebra(m)
    f, target, rep = theta_embed(s)
    assert rep.ok
    assert target.dim == 6
    # theta(1 # h) = 1 (x) h: permutation-like columns
    for hh in range(6):
        assert f.apply_sparse({hh: F(1)}) == {hh: 1}


def test_theta_embed_k3_ks3(smash18):
    f, target, rep = theta_embed(smash18)
    assert rep.ok
    assert target.dim == 54
    assert f.rank() == 18


def test_theta_fault_injection(smash18):
    f, target, rep = theta_embed(smash18)
    # flip one matrix entry: the algebra-map check must fail
    rows = [list(r) for r in f.matrix]
    nz = next((i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c != 0)
    rows[nz[0]][nz[1]] = -rows[nz[0]][nz[1]]
    from hopfsmash.hopfcore import check_map
    bad = LinearMap.from_matrix(rows)
    rep2 = check_map(bad, smash18.carrier, target, ("algebra",))
    assert not rep2.ok
    assert rep2.find("algebra_map").witness == (0, 0)


def test_build_b_dimensions_and_checks(b54):
    assert b54.wha.dim == 54
    assert b54.report.ok
    for name in ("target_matches_closed_form", "source_matches_closed_form",
                 *(f"{iso}.{row}" for iso in ("target_iso", "source_iso")
                   for row in ("algebra_map", "unit_preserved", "injective"))):
        assert b54.report.find(name).passed, name


def test_build_b_tensors_pinned(b54, double_mod_z2, structure_digest):
    # k^3 over (kS3, 1 (x) 1) and kZ2 over D(kZ2) with its two-term R, pinned
    # from the build that rebuilt the R/x-loop invariants in the innermost loops
    m, q = double_mod_z2
    b16 = build_B(m, q, separability(m))
    for b, pins in ((b54, ("9bdec80a1a482e4f", "205efc7e9cd3d82b",
                           "733bd4caeee2eaa9", "cad9d3d72d1e9811")),
                    (b16, ("8b7eb2bc16a351d7", "2e8093c937006db7",
                           "a441790bc6648a59", "1c3fb8e4e51a909e"))):
        w = b.wha
        assert (structure_digest(w.mult, w.unit), structure_digest(w.comult, w.counit),
                structure_digest(w.antipode.matrix),
                structure_digest(b.rqt.Rw, b.rqt.Rw_bar)) == pins


def test_build_b_trivial_coefficients(double_z2):
    # A = k: B ~ H as a weak Hopf algebra, in particular Delta_B(1) = 1 (x) 1
    dd, q = double_z2
    m = trivial_module_algebra(dd, pointwise_algebra(1))
    b = build_B(m, q, separability(m))
    assert b.wha.dim == 4
    one = b.wha.algebra.unit_sparse
    assert b.wha.delta_one == sparse_outer(one, one)


def test_build_b_guard(ks3, q_s3):
    adj = adjoint_module_algebra(ks3)
    with pytest.raises(HypothesisFailure):
        build_B(adj, q_s3, separability(adj))


def test_phi_embed(sws18, b54):
    f, image, rep = phi_embed(sws18, b54)
    assert rep.ok
    assert f.rank() == 18
    assert len(image) == 18
    assert rep.find("image_equals_equalizer").passed


def test_phi_trivial_coefficients_is_iso(double_z2):
    dd, q = double_z2
    m = trivial_module_algebra(dd, pointwise_algebra(1))
    sep = separability(m)
    sws = smash_weak_structure(smash_algebra(m), q, sep)
    b = build_B(m, q, sep)
    f, image, rep = phi_embed(sws, b)
    assert rep.ok
    assert f.rank() == 4 == b.wha.dim


def _phi_reference(sws, b):
    """The column loop phi_embed ran before it read Theta's columns, kept as
    a reference: phi(a # e_i) = sum c S(e_p).(x^1 a) (x) e_q (x) (x^2 -> alpha)
    over Delta(e_i) = sum c e_p (x) e_q."""
    s = sws.smash
    h, act, A = s.H, s.A_mod.action.act, s.A_mod.A
    hit = trace_form(A, b.sep.alpha).cols    # hit[x] = x -> alpha
    cols = []
    for a in range(s.na):
        for i in range(s.nh):
            col = {}
            for p, pq, c in h.coalgebra.comul_row(i):
                for (x1, x2), cx in b.sep.x.items():
                    for ta, ca in act(h.antipode.cols[p], A.mul_sparse({x1: 1}, {a: 1})).items():
                        for w, cw in hit[x2].items():
                            sp_add(col, b.flat(ta, pq, w), c * cx * ca * cw)
            cols.append(col)
    return tuple(cols)


@pytest.mark.parametrize("world", ["kZ2/D(kZ2)", "k3#kS3", "k/D(kZ2)", "k2/kZ2"])
def test_phi_embed_matches_the_reference_loop(world, sws18, b54, double_mod_z2, double_z2,
                                              kz2, q_z2):
    if world == "k3#kS3":
        sws, b = sws18, b54
    else:
        m, q = {"kZ2/D(kZ2)": lambda: double_mod_z2,
                "k/D(kZ2)": lambda: (trivial_module_algebra(double_z2[0], pointwise_algebra(1)),
                                     double_z2[1]),
                "k2/kZ2": lambda: (dm.k2_module_algebra_over_z2(kz2), q_z2)}[world]()
        sep = separability(m)
        sws, b = smash_weak_structure(smash_algebra(m), q, sep), build_B(m, q, sep)
    f, _, rep = phi_embed(sws, b)
    assert rep.ok
    assert f.cols == _phi_reference(sws, b)
    # phi is Theta, on the carrier B shares with Theta's target
    theta, target, _ = theta_embed(sws.smash)
    assert theta.cols == f.cols and target == b.wha.algebra


def test_rb_in_image_iff_muger_positive(b54, sws18, q_s3, m3):
    _, image, _ = phi_embed(sws18, b54)
    assert rb_in_image_iff_muger(b54, image, q_s3, m3) == (True, True)


def test_rb_in_image_iff_muger_negative(double_mod_z2):
    # kZ2 over D(kZ2): quantum commutative and u-trivial but NOT in the
    # Mueger center, so R_B must fall outside Im phi (x) Im phi
    m, q = double_mod_z2
    sep = separability(m)
    b = build_B(m, q, sep)
    assert b.wha.dim == 16
    sws = smash_weak_structure(smash_algebra(m), q, sep)
    _, image, _ = phi_embed(sws, b)
    assert rb_in_image_iff_muger(b, image, q, m) == (False, False)


def test_case_study_s3(s3_table):
    cs = groupoid_case_study(s3_table, dm.natural_point_action(3))
    assert cs.report.ok
    assert cs.t == 3
    assert len(cs.stabilizer) == 2


def test_case_study_z2_two_points(z2_table):
    cs = groupoid_case_study(z2_table, dm.z2_two_point_action())
    assert cs.report.ok
    assert cs.t == 2
    assert len(cs.stabilizer) == 1
    from hopfsmash.repdim import wedderburn_blocks
    assert wedderburn_blocks(cs.sws.smash.carrier).blocks == (2,)


def test_case_study_single_point(s3_table, ks3):
    cs = groupoid_case_study(s3_table, [[0] for _ in range(6)])
    assert cs.report.ok
    assert cs.t == 1
    assert cs.sws.smash.carrier.mult == ks3.mult


def test_case_study_refuses_intransitive(s3_table):
    # S3 on 3 + 1 points: one fixed point makes the action intransitive
    action = [row + [3] for row in dm.natural_point_action(3)]
    with pytest.raises(HypothesisFailure) as ei:
        groupoid_case_study(s3_table, action)
    assert "transitive-action" in str(ei.value)
    assert ei.value.witness is not None


def test_case_study_witness_is_the_first_failing_case(s3_table, ks3):
    # fault injection: a wrong inverse of the coset representative g_1 skews
    # the matrix units E_1j, E_j1; the witness is the least failing (i, j, k, l)
    # on the flat matrix-unit indices (i * t + j, k * t + l) of M_t(k)
    action = dm.natural_point_action(3)
    reps = [next(g for g in range(6) if action[g][0] == p) for p in range(3)]

    class SkewedInverse(GroupTable):
        def inv(self, i):
            return 3 if i == reps[1] else super().inv(i)

    skewed = SkewedInverse(s3_table.elements, s3_table.table)
    with pytest.raises(HypothesisFailure) as ei:
        groupoid_case_study(skewed, action, ks3)
    assert ei.value.hypothesis == "groupoid_case_study:units.algebra_map"

    # oracle: every failing relation E_ij E_kl = [j == k] E_il, in index order
    s = smash_algebra(permutation_module_algebra(ks3, s3_table, action))
    e = [[{s.flat(action[reps[i]][0], s3_table.table[reps[i]][skewed.inv(reps[j])]): F(1)}
          for j in range(3)] for i in range(3)]
    failing = [(i, j, k, l) for i in range(3) for j in range(3) for k in range(3)
               for l in range(3)
               if s.carrier.mul_sparse(e[i][j], e[k][l]) != (e[i][l] if j == k else {})]
    assert len(failing) > 1
    i, j, k, l = failing[0]
    assert ei.value.witness == (i * 3 + j, k * 3 + l)


def test_double_module_algebra_ks3(ks3, double_s3):
    from hopfsmash.modalg import is_quantum_commutative
    m, q = double_module_algebra(ks3, double_s3)
    assert is_quantum_commutative(q, m) == (True, None)


def test_double_module_algebra_trivial():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    m, q = double_module_algebra(h)
    assert m.A.dim == 1


def test_double_smash_decomposition_kz2(kz2, double_z2):
    rep = double_smash_decomposition(kz2, double_z2)
    assert rep.ok
    assert rep.find("dimension_product").passed
    for piece in ("iota", "c"):
        for row in ("algebra_map", "unit_preserved", "injective"):
            assert rep.find(f"{piece}.{row}").passed
    assert rep.find("C_equals_full_centralizer").passed


def test_double_module_spot_check_kz2(kz2, double_z2):
    assert double_module_spot_check(kz2, double_z2).ok


def test_double_smash_decomposition_on_a_host_that_is_not_cocommutative(ks3):
    # (kS3)* = k^S3: H # D(H) ~ Heisenberg(H^cop) (x) H and the H # D(H)-module
    # H (x) M, on a host whose coproduct is not symmetric (dim 216 again)
    h = dual_hopf(ks3)
    assert co_opposite(h.coalgebra) != h.coalgebra
    double = drinfeld_double(h)
    rep = double_smash_decomposition(h, double)
    assert rep.ok
    for piece in ("iota", "c"):
        for row in ("algebra_map", "unit_preserved", "injective"):
            assert rep.find(f"{piece}.{row}").passed
    assert rep.find("C_equals_full_centralizer").passed
    assert double_module_spot_check(h, double).ok


def test_fault_injected_double_action_fails_module_law(kz2, double_z2, monkeypatch):
    # move one constant of the H # D(H) action on H (x) M to the next target
    # index, at an element off the unit; the witness is the first failing
    # (u, v, x) in index order, found here by a dense scan
    big = smash_algebra(double_module_algebra(kz2, double_z2)[0]).carrier
    cells = smashcons._double_action_tensor(kz2).dense()
    u, x, y = next((u, x, y) for u in range(8) if u not in big.unit_sparse
                   for x in range(4) for y in range(4) if cells[u][x][y])
    cells[u][x][(y + 1) % 4] += cells[u][x][y]
    cells[u][x][y] = 0
    moved = Tensor3.from_entries((8, 4, 4), [(u, x, y, c) for u, plane in enumerate(cells)
                                             for x, row in enumerate(plane)
                                             for y, c in enumerate(row)])
    monkeypatch.setattr(smashcons, "_double_action_tensor", lambda h: moved)
    rep = double_module_spot_check(kz2, double_z2)

    mult = big.mult.dense()

    def act(u, v):    # e_u . v for a dense v on H (x) M
        return [sum(v[x] * cells[u][x][z] for x in range(4)) for z in range(4)]

    basis = [[int(x == z) for z in range(4)] for x in range(4)]
    failing = [(i, j, x) for i in range(8) for j in range(8) for x in range(4)
               if [sum(mult[i][j][k] * act(k, basis[x])[z] for k in range(8)) for z in range(4)]
               != act(i, act(j, basis[x]))]
    assert failing
    assert not rep.find("module_law").passed
    assert rep.find("module_law").witness == failing[0]
    assert rep.find("unit_acts_as_identity").passed


def test_smash_includes(smash18, m3, ks3):
    av = include_a(smash18, {0: F(1)})
    hv = smash18.include_h({1: F(1)})
    prod = smash18.carrier.mul_sparse(av, hv)
    assert prod == {smash18.flat(0, 1): F(1)}


def _smash_qt_loops(sws):
    """R_w, Rbar_w and the collapsed forms (1#R) Delta(1), Delta^cop(1) (1#R)
    of smash_qt, summed term by term over Delta(1) and R with carrier products:
    the loops smash_qt ran before it formed them as products in (A#H) (x) (A#H)."""
    s, q = sws.smash, sws.q
    mul, inc = s.carrier.mul_sparse, s.include_h
    one_t = sws.wha.delta_one
    r_items = list(q.R.items())
    rw: dict = {}
    rbar: dict = {}
    for (k1, k2), c in one_t.items():
        for (k1p, k2p), cp in one_t.items():
            for (r1, r2), cr in r_items:
                f1 = mul(mul({k2: 1}, inc({r1: 1})), {k1p: 1})
                f2 = mul(mul({k1: 1}, inc({r2: 1})), {k2p: 1})
                for key, cc in sparse_outer(f1, f2).items():
                    sp_add(rw, key, c * cp * cr * cc)
                f1 = mul(mul({k1: 1}, inc(s.H.antipode.cols[r1])), {k2p: 1})
                f2 = mul(mul({k2: 1}, inc({r2: 1})), {k1p: 1})
                for key, cc in sparse_outer(f1, f2).items():
                    sp_add(rbar, key, c * cp * cr * cc)
    right: dict = {}
    left: dict = {}
    for (k1, k2), c in one_t.items():
        for (r1, r2), cr in r_items:
            for key, cc in sparse_outer(mul(inc({r1: 1}), {k1: 1}),
                                        mul(inc({r2: 1}), {k2: 1})).items():
                sp_add(right, key, c * cr * cc)
            for key, cc in sparse_outer(mul({k2: 1}, inc({r1: 1})),
                                        mul({k1: 1}, inc({r2: 1}))).items():
                sp_add(left, key, c * cr * cc)
    return rw, rbar, right, left


def test_smash_qt_products_match_the_term_loops(sws18, double_z2):
    # k^2 # D(kZ2) with the trivial action has both a nontrivial R and
    # Delta(1) != 1 (x) 1; k^3 # kS3 has R = 1 (x) 1
    dd, q = double_z2
    m = trivial_module_algebra(dd, pointwise_algebra(2))
    sws8 = smash_weak_structure(smash_algebra(m), q, separability(m))
    assert (sws8.wha.dim, len(q.R.terms), len(sws8.wha.delta_one)) == (8, 4, 8)
    for sws in (sws18, sws8):
        wq, rep = smash_qt(sws)
        rw, rbar, right, left = _smash_qt_loops(sws)
        assert wq.Rw.terms == rw == right == left
        assert wq.Rw_bar.terms == rbar
        assert rep.find("simplified_form_right_multiplied").passed
        assert rep.find("simplified_form_left_multiplied").passed
    assert wq.Rw.terms != sws8.wha.delta_one


def _total_map_reference(hei, h, mu_cols, big):
    """The hand scan that checked mu before it went through
    algebra_map_failures: (y1, t1, y2, t2) with
    mu((y1 (x) t1)(y2 (x) t2)) != mu(y1 (x) t1) mu(y2 (x) t2), in that order."""
    n = h.dim
    hrows = h.algebra.mult._rows
    for y1 in range(n * n):
        for t1 in range(n):
            left = mu_cols[y1 * n + t1]
            for y2 in range(n * n):
                for t2 in range(n):
                    lhs: dict = {}
                    for ky, cy in hei.mul_row(y1, y2):
                        for kt, ck in hrows[t1][t2]:
                            for key, cc in mu_cols[ky * n + kt].items():
                                sp_add(lhs, key, cy * ck * cc)
                    if lhs != big.mul_sparse(left, mu_cols[y2 * n + t2]):
                        yield (y1, t1, y2, t2)


@pytest.mark.parametrize("cell", [(5, 6), (2, 6)])
def test_carrier_fault_fails_total_map_multiplicative_at_the_hand_scans_witness(
        cell, kz2, double_z2, monkeypatch):
    # one constant of the H # D(kZ2) carrier moved, in a nonempty cell and in
    # an empty one (e_0 with coefficient 2); mu is then scanned by
    # tensor_map_failures on the factors Heis and H, whose witness is the hand
    # scan's first failure (y1, t1, y2, t2) read on the flat index of Heis (x) H
    real_carrier, real_scan = smashcons.smash_carrier, smashcons.tensor_map_failures
    seen = []

    def faulty(alg, h, action):
        carrier = real_carrier(alg, h, action)
        t = carrier.mult
        k, c = (t.row(*cell) or ((0, 1),))[0]
        planes = [list(plane) for plane in t._rows]
        planes[cell[0]][cell[1]] = tuple(sorted({**dict(t.row(*cell)), k: c + 1}.items()))
        return type(carrier)(carrier.dim, Tensor3(t.dims, tuple(map(tuple, planes))),
                             carrier.unit)

    def recorded(f, a, b, dst):
        seen.append((f, dst))
        return real_scan(f, a, b, dst)

    monkeypatch.setattr(smashcons, "smash_carrier", faulty)
    monkeypatch.setattr(smashcons, "tensor_map_failures", recorded)
    check = double_smash_decomposition(kz2, double_z2).find("total_map_multiplicative")
    assert not check.passed
    (mu, big), = seen
    hei = smashcons.heisenberg_double(smashcons.opposites(kz2, "cop"))
    y1, t1, y2, t2 = next(_total_map_reference(hei, kz2, mu.cols, big))
    assert check.witness == (y1 * 2 + t1, y2 * 2 + t2)


def _with_cell(alg, i, j, k, delta):
    """A copy of the algebra alg with the constant of e_k in e_i e_j moved by
    delta; an empty cell fills."""
    t = alg.mult
    cell = dict(t.row(i, j))
    cell[k] = cell.get(k, 0) + delta
    planes = [list(plane) for plane in t._rows]
    planes[i][j] = tuple(sorted((m, c) for m, c in cell.items() if c))
    return StructureAlgebra(alg.dim, Tensor3(t.dims, tuple(map(tuple, planes))), alg.unit)


def _factor_read_cases(f, dst):
    """(f, dst) as given, f with one column moved, dst with a nonempty cell
    moved and dst with an empty cell filled by e_0 with coefficient 1/2."""
    n = dst.dim
    c = f.source_dim // 2
    moved = [dict(col) for col in f.cols]
    moved[c][n - 1] = moved[c].get(n - 1, 0) + 1
    cells = [(i, j) for i in range(n) for j in range(n)]
    full = next(ij for ij in cells if dst.mul_row(*ij))
    empty = next(ij for ij in cells if not dst.mul_row(*ij))
    k, w = dst.mul_row(*full)[0]
    return [(f, dst), (LinearMap(f.source_dim, n, moved), dst),
            (f, _with_cell(dst, *full, k, w + 1)), (f, _with_cell(dst, *empty, 0, F(1, 2)))]


@pytest.mark.parametrize("host", ["kZ2", "kZ3", "kS3"])
def test_factor_read_lists_the_failures_of_the_built_tensor_algebra(host, request, monkeypatch):
    # mu, Heis, H and the columns K as the decomposition hands them to
    # tensor_map_failures; the factor read against the scan of
    # tensor_algebra(Heis, H) on mu and the carrier, a moved column of mu, a
    # moved carrier cell and a filled one; the scan on K, then in full once
    # that fails, lists the full scan's failures on each
    fixtures = {"kZ2": ("kz2", "double_z2"), "kS3": ("ks3", "double_s3")}
    if host in fixtures:
        h, double = map(request.getfixturevalue, fixtures[host])
    else:
        h, double = group_algebra(dm.cyclic_table(3)), None
    seen = []
    with monkeypatch.context() as mp:
        mp.setattr(smashcons, "tensor_map_failures", lambda *args: seen.append(args) or iter(()))
        double_smash_decomposition(h, double)
    (mu, hei, hh, big, keep), = seen
    assert big.associative_by_twisting and len(keep) < big.dim
    flat = tensor_algebra(hei, hh)
    failing = []
    for f, dst in _factor_read_cases(mu, big):
        got = list(tensor_map_failures(f, hei, hh, dst))
        assert got == list(algebra_map_failures(f, flat, dst))
        assert list(certified_scan(lambda js: tensor_map_failures(f, hei, hh, dst, js),
                                   keep, None)) == got
        failing.append(len(got))
    assert failing[0] == 0 and all(failing[1:])
    # mu with the columns y (x) t doubled for t, resp. y, off the support of
    # the unit: still multiplicative on the columns of Heis (x) 1, resp.
    # 1 (x) H, so only the other part of K finds the failures
    n = hh.dim
    for off_unit in (lambda y, t: t not in hh.unit_sparse, lambda y, t: y not in hei.unit_sparse):
        f = LinearMap(big.dim, big.dim, [{k: 2 * c if off_unit(*divmod(j, n)) else c
                                          for k, c in col.items()} for j, col in enumerate(mu.cols)])
        got = list(tensor_map_failures(f, hei, hh, big))
        assert got and list(certified_scan(
            lambda js: tensor_map_failures(f, hei, hh, big, js), keep, None)) == got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_read_matches_the_built_scan_on_random_factors(seed):
    # A (dim 3) and B (dim 2) are random products with Fraction constants,
    # not associative; f is the identity into A (x) B and a random map into a
    # random target, each also with a column, a cell and an empty cell moved
    rng = random.Random(seed)
    consts = (-2, -1, F(1, 2), 1, F(1, 3), F(3, 2))

    def algebra(d):
        entries = [(i, j, k, rng.choice(consts)) for i in range(d) for j in range(d)
                   for k in rng.sample(range(d), rng.choice((0, 1, 2)))]
        return StructureAlgebra(d, Tensor3.from_entries((d, d, d), entries), (1,) + (0,) * (d - 1))

    a, b, dst = algebra(3), algebra(2), algebra(5)
    flat = tensor_algebra(a, b)
    rand = LinearMap(6, 5, [{r: rng.choice(consts) for r in rng.sample(range(5), 2)}
                            for _ in range(6)])
    failing = []
    for f, target in (*_factor_read_cases(LinearMap.identity(6), flat),
                      *_factor_read_cases(rand, dst)):
        got = list(tensor_map_failures(f, a, b, target))
        assert got == list(algebra_map_failures(f, flat, target))
        failing.append(len(got))
    assert failing[0] == 0 and all(failing[1:])
