from fractions import Fraction as F

import pytest

from hopfsmash import adjstable
from hopfsmash import demos as dm
from hopfsmash import weakhopf
from hopfsmash.exactlin import (LinearMap, Subspace, Tensor3, TensorElem, rank, sp, span_basis,
                                vec_dot)
from hopfsmash.hopfcore import (
    HopfData,
    StructureAlgebra,
    StructureCoalgebra,
    dual_hopf,
    tensor_mul_sparse,
    verify_hopf,
)
from hopfsmash.modalg import separability
from hopfsmash.qtriang import trivial_qt, verify_qt
from hopfsmash.smashcons import smash_algebra, smash_weak_structure
from hopfsmash.weakhopf import (
    GroupoidData,
    WeakHopfData,
    WeakQTStructure,
    almost_triangular_wha_report,
    check_wha_morphism,
    counital_data,
    groupoid_wha,
    transformation_groupoid,
    unit_weak_comult_sides,
    verify_weak_bialgebra,
    verify_weak_hopf,
    verify_weak_qt,
)
from reference import one_object_groupoid, pair_groupoid


def test_hopf_inputs_pass_weak_verifiers(kz2, ks3):
    for h in (kz2, ks3, dual_hopf(ks3)):
        w = WeakHopfData.from_hopf(h)
        assert verify_weak_bialgebra(w).ok
        assert verify_weak_hopf(w).ok


def test_weak_verifier_agrees_with_hopf_verifier_on_faults(ks3):
    # differential test: flip one comult entry; both verifiers must fail
    dense = ks3.comult.dense()
    dense[2][2][2] = F(0)
    dense[2][3][3] = F(1)
    bad = HopfData(ks3.algebra, StructureCoalgebra(6, Tensor3.from_dense(dense), ks3.counit),
                   ks3.antipode)
    assert not verify_hopf(bad).ok
    rep = verify_weak_bialgebra(WeakHopfData.from_hopf(bad))
    assert not rep.ok
    assert any(c.witness is not None for c in rep.failures())


def test_hopf_counital_maps_collapse(kz2):
    w = WeakHopfData.from_hopf(kz2)
    cd = counital_data(w)
    assert cd.report.ok
    # eps_s = eps_t = unit . counit for an ordinary Hopf algebra
    expected = tuple(tuple(kz2.unit[r] * kz2.counit[c] for c in range(2)) for r in range(2))
    assert cd.eps_s.matrix == expected and cd.eps_t.matrix == expected
    assert cd.source_basis == ({0: 1},)


def test_pair_groupoid_is_matrix_algebra():
    w = groupoid_wha(pair_groupoid(3))
    assert w.dim == 9
    assert verify_weak_hopf(w).ok
    cd = counital_data(w)
    assert cd.report.ok
    # source = target = diagonal matrix units E_00, E_11, E_22
    diag = [{0: 1}, {4: 1}, {8: 1}]
    assert list(cd.source_basis) == diag
    assert list(cd.target_basis) == diag
    # antipode is transposition of matrix units
    e01 = 0 * 3 + 1
    e10 = 1 * 3 + 0
    assert w.antipode.apply_sparse({e01: F(1)}) == {e10: 1}


def test_one_object_groupoid_is_group_algebra(s3_table, ks3):
    w = groupoid_wha(one_object_groupoid(s3_table))
    assert w.mult == ks3.mult
    assert w.comult == ks3.comult
    assert w.antipode == ks3.antipode


def test_transformation_groupoid_s3(s3_table):
    g = transformation_groupoid(s3_table, dm.natural_point_action(3))
    w = groupoid_wha(g)
    assert w.dim == 18
    assert verify_weak_hopf(w).ok


def test_transformation_groupoid_matches_smash(s3_table, smash18):
    # the groupoid algebra of G x X is A # kG via e_x # g |-> (g, g^{-1}.x)
    g = transformation_groupoid(s3_table, dm.natural_point_action(3))
    w = groupoid_wha(g)
    act = dm.natural_point_action(3)
    morphs = [(gg, x) for gg in range(6) for x in range(3)]
    midx = {m: i for i, m in enumerate(morphs)}
    cols = []
    for flat in range(18):
        a, hh = divmod(flat, smash18.nh)
        src = act[s3_table.inv(hh)][a]
        cols.append({midx[(hh, src)]: F(1)})
    f = LinearMap(18, 18, cols)
    from hopfsmash.hopfcore import check_map
    assert check_map(f, smash18.carrier, w.algebra, ("algebra", "injective")).ok


def test_groupoid_validation_rejects_broken_composition():
    g = pair_groupoid(2)
    bad = GroupoidData(g.n_objects, g.sources, g.targets,
                       tuple(tuple(None for _ in row) for row in g.compose),
                       g.identities, g.inverses)
    with pytest.raises(ValueError):
        bad.validate()


def test_fault_injected_groupoid_comult_fails():
    w = groupoid_wha(pair_groupoid(2))
    dense = w.comult.dense()
    dense[1][1][1] = F(0)
    dense[1][2][1] = F(1)
    bad = WeakHopfData(w.algebra, StructureCoalgebra(4, Tensor3.from_dense(dense), w.counit),
                       w.antipode)
    rep = verify_weak_bialgebra(bad)
    assert not rep.ok
    assert [(c.name, c.witness) for c in rep.failures()] == [
        ("coalgebra.counit_law", (1,)), ("comult_multiplicative", (0, 1)),
        ("weak_counit_identity_1", (0, 1, 2)), ("weak_counit_identity_2", (0, 1, 0))]


def _first_weak_counit_failure(w, swap):
    """First basis triple (f, g, h), in row-major order, where eps(f g h)
    differs from eps(f g_(1)) eps(g_(2) h), or with swap from
    eps(f g_(2)) eps(g_(1) h)."""
    n = w.dim

    def eps_mul(*idx):
        x = {idx[0]: F(1)}
        for i in idx[1:]:
            x = w.algebra.mul_sparse(x, {i: F(1)})
        return vec_dot(sp(w.counit), x)

    for f in range(n):
        for g in range(n):
            for h in range(n):
                side = F(0)
                for a, b, c in w.coalgebra.comul_row(g):
                    g1, g2 = (b, a) if swap else (a, b)
                    side += c * eps_mul(f, g1) * eps_mul(g2, h)
                if side != eps_mul(f, g, h):
                    return (f, g, h)
    return None


def _unit_weak_comult_reference(w):
    """((Delta (x) id) Delta(1), (Delta(1) (x) 1)(1 (x) Delta(1)),
    (1 (x) Delta(1))(Delta(1) (x) 1)), with the full 3-leg products."""
    rows = w.algebra.mult.row
    one = {i: c for i, c in enumerate(w.unit) if c}
    d1, lhs = {}, {}

    def add(acc, key, c):
        acc[key] = acc.get(key, 0) + c
        if not acc[key]:
            del acc[key]

    for u, cu in one.items():
        for a, b, c in w.coalgebra.comul_row(u):
            add(d1, (a, b), cu * c)
    for (a, b), c in d1.items():
        for p, q, cc in w.coalgebra.comul_row(a):
            add(lhs, (p, q, b), c * cc)
    d1_l = {(a, b, u): c * cu for (a, b), c in d1.items() for u, cu in one.items()}
    d1_r = {(u, a, b): c * cu for (a, b), c in d1.items() for u, cu in one.items()}

    def mul3(x, y):
        out = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                for p, cp in rows(kx[0], ky[0]):
                    for q, cq in rows(kx[1], ky[1]):
                        for r, cr in rows(kx[2], ky[2]):
                            add(out, (p, q, r), cx * cy * cp * cq * cr)
        return out

    return lhs, mul3(d1_l, d1_r), mul3(d1_r, d1_l)


def test_unit_weak_comult_from_middle_products(sws18):
    # the middle products of the Delta(1) terms against the full 3-leg
    # products, on genuine inputs and on twins whose Delta(1) moved or whose
    # unit law fails
    w = sws18.wha
    unit_rows = [i for i, c in enumerate(w.unit) if c]
    twins = [w, WeakHopfData.from_hopf(dual_hopf(dm.k_s3()))]
    for i in unit_rows:
        for j, k in ((i, 4), (1, i), (5, 9), (13, 2)):
            dense = w.comult.dense()
            dense[i][j][k] += 1
            twins.append(WeakHopfData(w.algebra, StructureCoalgebra(
                w.dim, Tensor3.from_dense(dense), w.counit), w.antipode))
        # a Delta(1) leg z with z 1 != z or 1 z != z, on one side only
        z = min(z for key in w.delta_one for z in key)
        for cell in ((i, i), (z, i), (i, z)):
            dense = w.mult.dense()
            dense[cell[0]][cell[1]][3] += 1
            twins.append(WeakHopfData(
                StructureAlgebra(w.dim, Tensor3.from_dense(dense), w.unit),
                w.coalgebra, w.antipode))
    verdicts = set()
    for twin in twins:
        rep = verify_weak_bialgebra(twin)
        lhs, order1, order2 = _unit_weak_comult_reference(twin)
        assert unit_weak_comult_sides(twin) == (lhs, order1, order2)
        verdicts.add((rep.find("algebra.unit_law").passed, lhs == order1, lhs == order2))
        assert rep.find("unit_weak_comult_order1").passed == (lhs == order1)
        assert rep.find("unit_weak_comult_order2").passed == (lhs == order2)
    assert {v[0] for v in verdicts} == {True, False}
    assert len({v[1:] for v in verdicts if v[0]}) > 1


@pytest.mark.parametrize("idx", range(9))
def test_fault_injected_counit_weak_counit_witnesses(idx):
    w = groupoid_wha(pair_groupoid(3))
    counit = list(w.counit)
    counit[idx] = F(2)
    bad = WeakHopfData(w.algebra, StructureCoalgebra(9, w.comult, tuple(counit)), w.antipode)
    rep = verify_weak_bialgebra(bad)
    wit1 = rep.find("weak_counit_identity_1").witness
    wit2 = rep.find("weak_counit_identity_2").witness
    assert wit1 is not None and wit2 is not None
    assert wit1 == _first_weak_counit_failure(bad, swap=False)
    assert wit2 == _first_weak_counit_failure(bad, swap=True)


def test_counit_form_pivots_span_rows_and_columns(sws18, b54):
    # F and H index a row basis and a column basis of T[f][h] = eps(e_f e_h)
    for w in (sws18.wha, b54.wha):
        fs, hs = w.counit_form_pivots
        t = w._eps_of_prod
        assert len(fs) == len(hs) == rank(t, w.dim) == 3
        assert rank([t[f] for f in fs], w.dim) == 3
        assert rank([{h: row[h] for h in hs if h in row} for row in t], w.dim) == 3


def test_counit_form_pivots_are_the_augmented_subspace_pivots(sws18, b54):
    # the leading indices of span_basis are the pivots of the identity-
    # augmented Subspaces these pivots were once read from, kept here as
    # the reference
    for w in (sws18.wha, b54.wha):
        t = w._eps_of_prod
        cols = LinearMap(w.dim, w.dim, t).transpose().cols
        assert w.counit_form_pivots == (Subspace(cols, w.dim).pivots, Subspace(t, w.dim).pivots)


def _scanned_index_sets(monkeypatch):
    """(fs, hs) of every later weak_counit_failures call, as tuples."""
    calls = []
    real = weakhopf.weak_counit_failures

    def recorded(w, swap, fs, hs):
        calls.append((tuple(fs), tuple(hs)))
        return real(w, swap, fs, hs)

    monkeypatch.setattr(weakhopf, "weak_counit_failures", recorded)
    return calls


def _smash_twin(w, comult_cell=None, counit_idx=None, mult_cell=None):
    """k^3 # kS3 with one comult cell, counit entry or mult cell moved by +1."""
    n = w.dim
    alg, coal = w.algebra, w.coalgebra
    if comult_cell is not None:
        d = w.comult.dense()
        i, j, k = comult_cell
        d[i][j][k] += 1
        coal = StructureCoalgebra(n, Tensor3.from_dense(d), w.counit)
    if counit_idx is not None:
        counit = list(w.counit)
        counit[counit_idx] += 1
        coal = StructureCoalgebra(n, w.comult, tuple(counit))
    if mult_cell is not None:
        d = w.mult.dense()
        i, j, k = mult_cell
        d[i][j][k] += 1
        alg = StructureAlgebra(n, Tensor3.from_dense(d), w.unit)
    return WeakHopfData(alg, coal, w.antipode)


def _two_rref_pivots(w):
    """(F, H) as two eliminations read them, kept as the reference: the pivot
    columns of the RREF of T's columns and of the RREF of T's rows."""
    t = w.counit_form
    return (tuple(min(row) for row in span_basis(t.transpose().cols, w.dim)),
            tuple(min(row) for row in span_basis(t.cols, w.dim)))


TWINS = {"mult (3, 2, 5)": {"mult_cell": (3, 2, 5)}, "mult (0, 0, 1)": {"mult_cell": (0, 0, 1)},
         "mult (12, 6, 0)": {"mult_cell": (12, 6, 0)}, "comult (5, 1, 2)": {"comult_cell": (5, 1, 2)},
         "counit 7": {"counit_idx": 7}}


@pytest.mark.parametrize("world", ["k^2 # kZ2", "k^3 # kS3", "B", *TWINS])
def test_counit_form_pivots_are_the_two_rref_pivots(kz2, sws18, b54, world):
    # one elimination of T's rows gives what two RREFs gave, on the built
    # algebras and on twins of k^3 # kS3, the mult twins not associative
    if world == "k^2 # kZ2":
        m = dm.k2_module_algebra_over_z2(kz2)
        w = smash_weak_structure(smash_algebra(m), trivial_qt(kz2), separability(m)).wha
    elif world in TWINS:
        w = _smash_twin(sws18.wha, **TWINS[world])
        assert w.algebra.report.find("associativity").passed == (not world.startswith("mult"))
    else:
        w = sws18.wha if world == "k^3 # kS3" else b54.wha
    fs, hs = w.counit_form_pivots
    assert (fs, hs) == _two_rref_pivots(w)
    assert fs != hs    # so F read as the leads of the row echelon would not pass


def test_weak_counit_reduced_scan_on_smash(sws18, monkeypatch):
    calls = _scanned_index_sets(monkeypatch)
    w = sws18.wha
    fresh = WeakHopfData(w.algebra, w.coalgebra, w.antipode)
    rep = verify_weak_bialgebra(fresh)
    assert rep.find("weak_counit_identity_1").passed
    assert rep.find("weak_counit_identity_2").passed
    assert calls == [fresh.counit_form_pivots] * 2


@pytest.mark.parametrize("twin", [{"comult_cell": (5, 1, 2)}, {"counit_idx": 7}],
                         ids=["comult", "counit"])
def test_fault_injected_smash_weak_counit_witnesses(sws18, twin, monkeypatch):
    # associativity holds, so the reduced scan runs first and the full scan
    # then reports the first failing triple in row-major order
    bad = _smash_twin(sws18.wha, **twin)
    calls = _scanned_index_sets(monkeypatch)
    rep = verify_weak_bialgebra(bad)
    assert rep.find("algebra.associativity").passed
    full = (tuple(range(18)), tuple(range(18)))
    assert calls == [bad.counit_form_pivots, full] * 2
    wit1 = rep.find("weak_counit_identity_1").witness
    wit2 = rep.find("weak_counit_identity_2").witness
    assert wit1 is not None and wit2 is not None
    assert wit1 == _first_weak_counit_failure(bad, swap=False)
    assert wit2 == _first_weak_counit_failure(bad, swap=True)


def test_fault_injected_smash_nonassociative_weak_counit_witnesses(sws18, monkeypatch):
    # without associativity F is every index; the witness is the full scan's
    bad = _smash_twin(sws18.wha, mult_cell=(3, 2, 5))
    calls = _scanned_index_sets(monkeypatch)
    rep = verify_weak_bialgebra(bad)
    assert not rep.find("algebra.associativity").passed
    everything = tuple(range(18))
    reduced = (everything, bad.counit_form_pivots[1])
    assert calls == [reduced, (everything, everything)] * 2
    assert rep.find("weak_counit_identity_1").witness == \
        _first_weak_counit_failure(bad, swap=False) == (1, 3, 2)
    assert rep.find("weak_counit_identity_2").witness == \
        _first_weak_counit_failure(bad, swap=True) == (1, 3, 2)


def _first_anti_algebra_failure(w):
    """First basis pair (i, j), in row-major order, with S(e_i e_j) !=
    S(e_j) S(e_i), else ("unit",) when S(1) != 1."""
    n = w.dim
    s, mul = w.antipode.apply_sparse, w.algebra.mul_sparse
    for i in range(n):
        for j in range(n):
            if s(mul({i: F(1)}, {j: F(1)})) != mul(s({j: F(1)}), s({i: F(1)})):
                return (i, j)
    one = w.algebra.unit_sparse
    return ("unit",) if s(one) != one else None


@pytest.mark.parametrize("cell", [(9, 4), (17, 17)])
def test_fault_injected_antipode_anti_algebra_witness(sws18, cell):
    # (17, 17) fails first at (0, 17), and 17 is not a generator of k^3 # kS3
    w = sws18.wha
    assert verify_weak_hopf(w).find("antipode_anti_algebra").passed
    anti = [list(row) for row in w.antipode.matrix]
    anti[cell[0]][cell[1]] += 1
    bad = WeakHopfData(w.algebra, w.coalgebra, LinearMap.from_matrix(anti))
    check = verify_weak_hopf(bad).find("antipode_anti_algebra")
    assert not check.passed
    assert check.witness == _first_anti_algebra_failure(bad)


def test_weak_qt_reduces_to_qt_for_hopf(double_z2):
    dd, q = double_z2
    w = WeakHopfData.from_hopf(dd)
    wq = WeakQTStructure(w, q.R, q.Rinv)
    rep = verify_weak_qt(wq)
    assert rep.ok
    assert verify_qt(q).ok


def test_check_wha_morphism_identity_and_failure(kz2):
    w = WeakHopfData.from_hopf(kz2)
    ident = LinearMap(2, 2, [{0: F(1)}, {1: F(1)}])
    assert check_wha_morphism(ident, w, w).ok
    # unit-scaled counit into M_3(k): not a coalgebra map since Delta(1) != 1 (x) 1
    m3k = groupoid_wha(pair_groupoid(3))
    f = LinearMap(2, 9, [{k: kz2.counit[i] * c for k, c in m3k.algebra.unit_sparse.items()}
                         for i in range(2)])
    rep = check_wha_morphism(f, w, m3k)
    assert rep.find("algebra_map").passed
    assert not rep.find("coalgebra_map").passed


def test_almost_triangular_report_on_hopf_double(double_z2):
    dd, q = double_z2
    w = WeakHopfData.from_hopf(dd)
    wq = WeakQTStructure(w, q.R, q.Rinv)
    rep = almost_triangular_wha_report(wq)
    assert rep.ok
    # commutative host: all conditions hold
    assert rep.find("almost_triangular").passed


def test_almost_triangular_report_on_triangular_smash(sws18):
    from hopfsmash.smashcons import smash_qt
    wq, _ = smash_qt(sws18)
    rep = almost_triangular_wha_report(wq)
    assert rep.ok
    assert rep.find("almost_triangular").passed


def _cond6_reference(wq):
    """The first (i, j) of all n^2 pairs where z = R^21 R does not commute
    with the corner Delta(1)(e_i (x) e_j)Delta(1); None when there is none."""
    w = wq.host
    algs2 = (w.algebra, w.algebra)
    z = tensor_mul_sparse(algs2, wq.Rw.flip().terms, wq.Rw.terms)
    d1 = w.delta_one
    for i in range(w.dim):
        for j in range(w.dim):
            corner = tensor_mul_sparse(algs2, tensor_mul_sparse(algs2, d1, {(i, j): 1}), d1)
            if tensor_mul_sparse(algs2, z, corner) != tensor_mul_sparse(algs2, corner, z):
                return (i, j)
    return None


@pytest.fixture(scope="module")
def corner_worlds(double_z2, double_s3, b54, q_s3, ip_s3, bg_s3, hr_decomposition,
                  transposition_block):
    """D(kZ2), D(kS3) and B, and the N_D that nd_transport_report builds for
    the transpositions (read off its second almost-triangular report)."""
    seen = []
    real = adjstable.almost_triangular_wha_report
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adjstable, "almost_triangular_wha_report",
                   lambda wq: seen.append(wq) or real(wq))
        adjstable.nd_transport_report(transposition_block, q_s3, ip_s3, bg_s3,
                                      hr_decomposition)
    worlds = {name: WeakQTStructure(WeakHopfData.from_hopf(dd), q.R, q.Rinv)
              for name, (dd, q) in (("D(kZ2)", double_z2), ("D(kS3)", double_s3))}
    return {**worlds, "B": b54.rqt, "N_D": seen[1]}


def _product_cell_moved(wq, src, dst):
    """wq over a twin of its host whose product cell src is moved to the
    empty cell dst; coproduct, antipode, R and Rbar are kept."""
    w = wq.host
    alg, n = w.algebra, w.dim
    assert alg.mul_row(*src) and not alg.mul_row(*dst)
    entries = [(*(dst if (i, j) == src else (i, j)), k, c)
               for i in range(n) for j in range(n) for k, c in alg.mul_row(i, j)]
    twin = StructureAlgebra(n, Tensor3.from_entries((n, n, n), entries), alg.unit)
    return WeakQTStructure(WeakHopfData(twin, w.coalgebra, w.antipode), wq.Rw, wq.Rw_bar)


def test_cond6_corners_match_the_all_pairs_loop(corner_worlds):
    # the report forms only the corners that Delta(1) can reach; twins of N_D
    # with one cell of R moved by +1 perturb z so that cond6 fails.  Twins
    # with one product cell moved are not associative: on each, the corner
    # (e_a e_i) e_a' is not e_a (e_i e_a'), and the shortcut e_i e_a' != 0
    # would skip the first failing pair (it finds none on the first two and
    # a later pair on the third)
    nd = corner_worlds["N_D"]
    n = nd.host.dim
    twins = {}
    for cell in ((12, 9), (15, 11)):
        terms = dict(nd.Rw.terms)
        terms[cell] = terms.get(cell, 0) + 1
        twins[f"N_D {cell}"] = WeakQTStructure(
            nd.host, TensorElem.from_entries((n, n), terms.items()), nd.Rw_bar)
    for src, dst in (((12, 17), (12, 10)), ((6, 5), (0, 16)), ((15, 9), (6, 14))):
        twin = twins[f"N_D product {src} -> {dst}"] = _product_cell_moved(nd, src, dst)
        assert not twin.host.algebra.report.find("associativity").passed
    for name, wq in {**corner_worlds, **twins}.items():
        check = almost_triangular_wha_report(wq).find("cond6_z_central_in_corner")
        ref = _cond6_reference(wq)
        assert (check.passed, check.witness) == (ref is None, ref), name
        assert (ref is None) == (name in ("D(kZ2)", "B", "N_D")), name


def test_counital_consequences_on_smash(sws18):
    cd = counital_data(sws18.wha)
    assert cd.report.ok
    assert len(cd.source_basis) == 3
    assert len(cd.target_basis) == 3


def _first_anti_coalgebra_failure(w):
    """First basis index (i,) with Delta(S(e_i)) != S(e_i(2)) (x) S(e_i(1)),
    read off the dense matrices of Delta and S, else (i, "counit") for the
    first i with eps(S(e_i)) != eps(e_i)."""
    n = w.dim
    delta, s = w.comult.dense(), w.antipode.matrix    # s[r][c]: e_r in S(e_c)
    for i in range(n):
        lhs = [[sum(s[m][i] * delta[m][a][b] for m in range(n)) for b in range(n)]
               for a in range(n)]
        rhs = [[sum(delta[i][p][q] * s[a][q] * s[b][p] for p in range(n) for q in range(n))
                for b in range(n)] for a in range(n)]
        if lhs != rhs:
            return (i,)
    for i in range(n):
        if sum(s[m][i] * w.counit[m] for m in range(n)) != w.counit[i]:
            return (i, "counit")
    return None


@pytest.mark.parametrize("cell", [(9, 4), (4, 9), (0, 17)])
def test_fault_injected_antipode_anti_coalgebra_witness(sws18, cell):
    w = sws18.wha
    assert verify_weak_hopf(w).find("antipode_anti_coalgebra").passed
    anti = [list(row) for row in w.antipode.matrix]
    anti[cell[0]][cell[1]] += 1
    bad = WeakHopfData(w.algebra, w.coalgebra, LinearMap.from_matrix(anti))
    check = verify_weak_hopf(bad).find("antipode_anti_coalgebra")
    assert not check.passed
    assert check.informational
    assert check.witness == _first_anti_coalgebra_failure(bad)


def test_verify_weak_hopf_builds_no_transposed_tensor(b54, monkeypatch):
    # the anti-laws read the product and coproduct swapped in place
    w = b54.wha
    monkeypatch.setattr(Tensor3, "permuted", lambda *a: pytest.fail("tensor transposed"))
    rep = verify_weak_hopf(WeakHopfData(w.algebra, w.coalgebra, w.antipode))
    assert rep.ok
    assert rep.find("antipode_anti_algebra").passed
    assert rep.find("antipode_anti_coalgebra").passed


@pytest.mark.parametrize("world", ["kS3", "k3 # kS3"])
def test_counital_closure_witnesses_match_the_reference_scan(world, request):
    # counital_data on twins of the source and target bases (one vector
    # moved, its indices shifted by 1 or 2), set as a fresh WeakHopfData's
    # cached bases: the same first (i, j) whose product leaves the span as
    # the scan over contains that the closure checks ran before
    w = {"kS3": lambda: WeakHopfData.from_hopf(request.getfixturevalue("ks3")),
         "k3 # kS3": lambda: request.getfixturevalue("sws18").wha}[world]()
    refused = 0
    for side in ("source", "target"):
        basis = getattr(w, f"{side}_basis")
        for i, shift in ((i, s) for i in range(len(basis)) for s in (1, 2)):
            twin = list(basis)
            twin[i] = {(k + shift) % w.dim: c for k, c in basis[i].items()}
            if rank(twin, w.dim) < len(twin):
                continue
            fresh = WeakHopfData(w.algebra, w.coalgebra, w.antipode)
            fresh.__dict__[f"{side}_basis"] = tuple(twin)
            span = Subspace(twin, w.dim)
            ref = next(((a, b) for a, u in enumerate(twin) for b, v in enumerate(twin)
                        if not span.contains(w.algebra.mul_sparse(u, v))), None)
            check = counital_data(fresh).report.find(f"{side}_closed_under_product")
            assert (check.passed, check.witness) == (ref is None, ref)
            refused += ref is not None
    assert refused > 0
