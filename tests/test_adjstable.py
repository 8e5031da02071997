import itertools
from fractions import Fraction as F

import pytest

from hopfsmash.adjstable import (
    ComoduleData,
    adjoint_stable_algebra,
    build_h_tensor_w,
    cotensor,
    cotensor_right_module,
    decompose_hr,
    dstar_module_algebra,
    dual_right_comodule,
    nd_transport_report,
    nw_direct_sum_report,
    psi_phi,
    subcoalgebra_data,
    verify_left_comodule,
    yd_summand_from_block,
    yd_to_comodule,
)
from hopfsmash import demos as dm
from hopfsmash.exactlin import (LinearMap, Subspace, Tensor3, commutant_rows, kernel_basis,
                                rank, sp_add, span_basis, split, vec)
from hopfsmash.hopfcore import (StructureCoalgebra, co_opposite, dual_hopf, end_algebra,
                                opposite_algebra, opposites)
from hopfsmash.qtriang import trivial_qt
from hopfsmash.report import HypothesisFailure
from reference import (conjugacy_classes, cotensor_act_reference, cotensor_right_module_reference,
                       hr_block_rows_reference, span_of)


def grouplike_comodule(bg, indices, dim_h=6):
    """k-span of group-like basis vectors as a left H_R-comodule."""
    entries = []
    for a, g in enumerate(indices):
        entries.append((a, g, a, 1))
    return ComoduleData(bg.braided_coalgebra, len(indices),
                        Tensor3.from_entries((len(indices), dim_h, len(indices)), entries))


def test_decompose_hr_s3_matches_classes(hr_decomposition, s3_table):
    dims = sorted(len(b) for b in hr_decomposition.blocks)
    # oracle: the conjugacy classes of S3, computed from the table
    class_dims = sorted(len(c) for c in conjugacy_classes(s3_table))
    assert dims == class_dims == [1, 2, 3]
    assert hr_decomposition.fully_split
    assert hr_decomposition.report.ok
    # the blocks are exactly the class spans
    for cls in conjugacy_classes(s3_table):
        span = [{g: F(1)} for g in cls]
        assert any(span_basis(list(b), 6) == span_basis(span, 6)
                   for b in hr_decomposition.blocks)


def test_decompose_hr_s3_blocks_pinned(hr_decomposition, structure_digest, dense):
    # exact blocks, pinned: the splitting kernel must reproduce them bit for bit
    blocks = tuple(tuple(dense(v, 6) for v in blk) for blk in hr_decomposition.blocks)
    assert structure_digest(blocks) == "1cf47adbd53b8eea"


@pytest.mark.parametrize("double, sizes, fully_split", [
    ("double_z2", (1, 1, 1, 1), True),
    ("double_s3", (1, 1, 4, 9, 9, 12), False),
], ids=["D(kZ2)", "D(kS3)"])
def test_decompose_hr_on_doubles(request, double, sizes, fully_split):
    # H_R of a nontrivially braided double: D(kS3) keeps blocks that do not
    # split over Q, and its report says so without failing
    from hopfsmash.qtriang import transmute
    dec = decompose_hr(transmute(request.getfixturevalue(double)[1]))
    assert tuple(len(b) for b in dec.blocks) == sizes
    assert dec.fully_split is fully_split
    informational = {"axiom": "fully_split", "status": "pass" if fully_split else "fail",
                     "informational": True}
    assert dec.report.to_dict() == {"subject": "decompose_hr", "ok": True, "checks": [
        informational,
        {"axiom": "direct_sum", "status": "pass"},
        {"axiom": "blocks_ad_and_deltaR_stable", "status": "pass"},
        {"axiom": "blocks_minimal", "status": "pass"}]}


def _commutant_route(bg):
    """The blocks of H_R by the commutant, kept as a reference for the
    centre route: the joint eigenspaces of the commutant of the adjoint
    action and the coaction slices (f (x) id) Delta, an n^2-unknown solve."""
    h = bg.host.host
    n = h.dim
    gens = [LinearMap(n, n, [dict(bg.adjoint_action.row(t, c)) for c in range(n)])
            for t in range(n)]
    gens += [LinearMap(n, n, [dict(h.coalgebra.comult.row(c, k)) for c in range(n)])
             for k in range(n)]
    comm = []
    for v in kernel_basis(commutant_rows(gens, n), n * n):
        cols = [{} for _ in range(n)]    # X[r][c] is v[r n + c]
        for key, x in v.items():
            cols[key % n][key // n] = x
        comm.append(LinearMap(n, n, cols))
    return split(comm, n)


@pytest.mark.parametrize("host", ["kZ2", "kS3", "D(kZ2)", "D(kZ3)", "D(kS3)"])
def test_decompose_hr_matches_the_commutant_route(request, host):
    from hopfsmash.hopfcore import drinfeld_double, group_algebra
    from hopfsmash.qtriang import transmute
    q = {"kZ2": lambda: request.getfixturevalue("q_z2"),
         "kS3": lambda: request.getfixturevalue("q_s3"),
         "D(kZ2)": lambda: request.getfixturevalue("double_z2")[1],
         "D(kZ3)": lambda: drinfeld_double(group_algebra(dm.cyclic_table(3)))[1],
         "D(kS3)": lambda: request.getfixturevalue("double_s3")[1]}[host]()
    bg = transmute(q)
    n = q.host.dim
    dec = decompose_hr(bg)
    blocks, fully_split = _commutant_route(bg)
    assert dec.fully_split is fully_split
    spaces = [span_of(Subspace(b, n)) for b in blocks]
    assert len(dec.blocks) == len(spaces)
    assert all(span_of(Subspace(b, n)) in spaces for b in dec.blocks)


@pytest.mark.parametrize("corrupt_ad", [False, True],
                         ids=["delta_r-slice", "adjoint-before-delta_r"])
def test_decompose_hr_stability_witness_is_the_first_failure(bg_s3, s3_table, corrupt_ad):
    # fault injection on H_R(kS3): Delta_R(e) gains e_x (x) e_y, x, y the two
    # 3-cycles, which leaves every block F_i -> H_R as it was but the first
    # block k.e not Delta_R-stable; with corrupt_ad, e_1 .ad e also gains e_x.
    # Per vector the adjoint images come first, then the slices of Delta_R
    from hopfsmash.qtriang import BraidedGroupData

    def plus(t3, extra):
        d0, d1, _ = t3.dims
        return Tensor3.from_entries(t3.dims, [(i, j, k, c) for i in range(d0) for j in range(d1)
                                              for k, c in t3.row(i, j)] + [extra])

    e = s3_table.identity
    x, y = next(c for c in conjugacy_classes(s3_table) if len(c) == 2)
    ad = plus(bg_s3.adjoint_action, (1, e, x, 1)) if corrupt_ad else bg_s3.adjoint_action
    bad = BraidedGroupData(bg_s3.host, ad, plus(bg_s3.comult_R, (e, x, y, 1)),
                           bg_s3.antipode_R)
    dec = decompose_hr(bad)
    assert [len(b) for b in dec.blocks] == [1, 2, 3] and dec.blocks[0] == ({e: 1},)
    check = dec.report.find("blocks_ad_and_deltaR_stable")
    assert not check.passed
    assert check.witness == ((0, 0, "ad", 1) if corrupt_ad else (0, 0, "delta_r", "leg1", y))


def _cell_moved(t, i, j):
    """t with the last nonzero entry of cell (i, j) moved to the next index."""
    cells = t.dense()
    row = cells[i][j]
    y = max(y for y, c in enumerate(row) if c)
    row[(y + 1) % t.dims[2]] += row[y]
    row[y] = 0
    return Tensor3.from_dense(cells)


def test_decompose_hr_rows_match_the_dense_reference(q_s3, double_z2, double_s3, monkeypatch):
    # the stability and minimality rows against the scans over every t, on
    # the blocks of four hosts and on twins with one cell of ad or of Delta_R
    # moved at the last vector of the first multi-vector block; an ad twin
    # fails the module law, so every t is read at once, and a Delta_R twin
    # keeps it, so a block that leaves on S is read again over every t
    from hopfsmash.hopfcore import drinfeld_double, group_algebra
    from hopfsmash.qtriang import BraidedGroupData, transmute
    reads = []
    restricted = Subspace.restricted

    def spy(self, t, xs, ys):
        out = restricted(self, t, xs, ys)
        reads.append((t, len(xs), out[0] is None))
        return out

    monkeypatch.setattr(Subspace, "restricted", spy)
    paths = set()
    for q in (q_s3, double_z2[1], drinfeld_double(group_algebra(dm.cyclic_table(3)))[1],
              double_s3[1]):
        bg = transmute(q)
        n = q.host.dim
        dec = decompose_hr(bg)
        assert [(c.name, c.witness) for c in dec.report.checks[2:]] == \
            hr_block_rows_reference(bg, dec.blocks, dec.fully_split)
        blk = next((b for b in dec.blocks if len(b) > 1), None)
        if blk is None:
            continue
        x = max(blk[-1])
        twins = [BraidedGroupData(q, _cell_moved(bg.adjoint_action, t, x), bg.comult_R,
                                  bg.antipode_R) for t in (1, n // 2, n - 1)
                 if bg.adjoint_action.row(t, x)]
        twins += [BraidedGroupData(q, bg.adjoint_action, _cell_moved(bg.comult_R, x, f),
                                   bg.antipode_R) for f in (1, n // 2, n - 1)
                  if bg.comult_R.row(x, f)]
        for twin in twins:
            law = twin.report.find("adjoint_module_law").passed
            del reads[:]
            dec = decompose_hr(twin)
            rows = [(c.name, c.witness) for c in dec.report.checks[2:]]
            assert rows == hr_block_rows_reference(twin, dec.blocks, dec.fully_split)
            # (number of t read, whether the block left) per read of ad
            ad_reads = [(m, left) for t, m, left in reads if t is twin.adjoint_action]
            s = len(q.host.algebra.generators)
            if not law:
                assert {m for m, _ in ad_reads} == {n}
                paths.add("every t")
            elif (s, True) in ad_reads:
                assert rows[0][1][2] == "ad"
                assert ad_reads[ad_reads.index((s, True)) + 1] == (n, True)
                paths.add("S, then every t")
            else:
                assert {m for m, _ in ad_reads} == {s}
    assert paths == {"every t", "S, then every t"}


def test_decompose_hr_kz2(kz2, q_z2):
    from hopfsmash.qtriang import transmute
    dec = decompose_hr(transmute(q_z2))
    assert sorted(len(b) for b in dec.blocks) == [1, 1]


def test_decompose_hr_trivial():
    from hopfsmash.hopfcore import GroupTable, group_algebra
    from hopfsmash.qtriang import transmute
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    dec = decompose_hr(transmute(trivial_qt(h)))
    assert [len(b) for b in dec.blocks] == [1]


def test_yd_to_comodule_blocks(ks3, q_s3, bg_s3, hr_decomposition):
    # V = k.e: D_V = k.e ; V = transposition class: D_V = the class span
    for blk in hr_decomposition.blocks:
        yd = yd_summand_from_block(ks3, blk, bg_s3)
        res = yd_to_comodule(yd, q_s3, bg_s3)
        assert res.report.ok
        assert span_basis(list(res.d_v_basis), 6) == span_basis(list(blk), 6)


def test_yd_to_comodule_full_regular(ks3, q_s3, bg_s3):
    # V = H itself: the generated subcoalgebra is everything
    from hopfsmash.adjstable import YetterDrinfeldData
    yd = YetterDrinfeldData(ks3, bg_s3.adjoint_action, ks3.comult)
    res = yd_to_comodule(yd, q_s3, bg_s3)
    assert len(res.d_v_basis) == 6


def test_build_h_tensor_w(ks3, bg_s3):
    w = grouplike_comodule(bg_s3, [1])   # a transposition
    htw = build_h_tensor_w(w, ks3, bg_s3)
    assert htw.dim == 6
    d = grouplike_comodule(bg_s3, [1, 2, 4])
    assert build_h_tensor_w(d, ks3, bg_s3).dim == 18


def test_fault_injected_coaction_fails(bg_s3):
    entries = [(0, 1, 0, 1), (0, 2, 0, 1)]  # not counital
    bad = ComoduleData(bg_s3.braided_coalgebra, 1, Tensor3.from_entries((1, 6, 1), entries))
    rep = verify_left_comodule(bad)
    assert not rep.ok
    assert [(c.name, c.witness) for c in rep.failures()] == [
        ("counit_law", (0,)), ("coassociativity", (0,))]


def test_cotensor_dimensions(ks3, bg_s3, s3_table):
    # W = k.(single transposition): N_W = k C(g), and |C(g)| = 2 by the
    # brute-force centralizer oracle on the group table
    g = 1
    cg = [x for x in range(6)
          if s3_table.table[x][g] == s3_table.table[g][x]]
    assert len(cg) == 2
    w = grouplike_comodule(bg_s3, [g])
    htw = build_h_tensor_w(w, ks3, bg_s3)
    basis = cotensor(dual_right_comodule(w), htw.as_comodule())
    assert len(basis) == 2

    transpositions = [1, 2, 5]
    d = grouplike_comodule(bg_s3, transpositions)
    htd = build_h_tensor_w(d, ks3, bg_s3)
    basis_d = cotensor(dual_right_comodule(d), htd.as_comodule())
    assert len(basis_d) == 18  # = 6 * 9 / 3


def test_cotensor_trivial_coaction_full():
    # both coactions through the trivial one-dimensional coalgebra: equalizer
    # is everything; the point coalgebra is its own co-opposite
    point = StructureCoalgebra(1, Tensor3.from_entries((1, 1, 1), [(0, 0, 0, 1)]), vec([1]))
    wd = ComoduleData(co_opposite(point), 2,
                      Tensor3.from_entries((2, 1, 2), [(0, 0, 0, 1), (1, 0, 1, 1)]))
    m = ComoduleData(point, 3, Tensor3.from_entries((3, 1, 3),
                                                    [(i, 0, i, 1) for i in range(3)]))
    assert len(cotensor(wd, m)) == 6


def test_cotensor_refuses_wdual_not_over_the_co_opposite(ks3):
    # C = k^S3 is not cocommutative, so the right label matters.  For the
    # regular comodules C [] C = C; a W* over C in place of C^cop is refused,
    # as is one over kS3 or over the point coalgebra
    c = dual_hopf(ks3).coalgebra
    right = co_opposite(c)
    assert right != c
    m = ComoduleData(c, 6, c.comult)
    assert len(cotensor(ComoduleData(right, 6, right.comult), m)) == 6
    point = StructureCoalgebra(1, Tensor3.from_entries((1, 1, 1), [(0, 0, 0, 1)]), vec([1]))
    for wd in (ComoduleData(c, 6, right.comult), ComoduleData(ks3.coalgebra, 6, right.comult),
               ComoduleData(point, 1, point.comult)):
        with pytest.raises(ValueError, match="co_opposite"):
            cotensor(wd, m)


def test_fault_injected_right_coaction_fails(ks3):
    # C = k^S3 is not cocommutative; C as a right C-comodule, rho = Delta, is
    # the left co_opposite(C)-comodule whose coaction tensor is Delta^cop
    c = dual_hopf(ks3).coalgebra
    right = co_opposite(c)
    assert right != c
    assert verify_left_comodule(ComoduleData(right, 6, right.comult)).ok
    e = ks3.unit.index(1)    # the counit of k^S3 is evaluation at e
    cells = {(w, d): dict(right.comult.row(w, d)) for w in range(6) for d in range(6)}

    def twin(d):
        # one more e_d (x) p_3 in rho(p_3): p_3 feeds (id (x) rho) rho(p_0)
        bumped = {key: dict(cell) for key, cell in cells.items()}
        bumped[(3, d)][3] = bumped[(3, d)].get(3, 0) + 1
        entries = [(w, dd, k, x) for (w, dd), cell in bumped.items() for k, x in cell.items()]
        rep = verify_left_comodule(
            ComoduleData(right, 6, Tensor3.from_entries((6, 6, 6), entries)), "right_comodule")
        return [(ch.name, ch.witness) for ch in rep.failures()]

    assert twin(e) == [("counit_law", (3,)), ("coassociativity", (0,))]
    assert twin((e + 1) % 6) == [("coassociativity", (0,))]


@pytest.mark.parametrize("host", ["kS3", "(kS3)*"])
def test_dual_right_comodule_matches_the_reference_loop(host, ks3):
    # C as a left comodule over itself; on the non-cocommutative (kS3)* the
    # coaction tensor is not symmetric in its outer legs, so the order shows
    c = {"kS3": ks3, "(kS3)*": dual_hopf(ks3)}[host].coalgebra
    n = c.dim
    cm = ComoduleData(c, n, c.comult)
    ref = Tensor3.from_entries((n, n, n), [(i, d, j, x) for j, row in enumerate(cm.rows)
                                           for d, i, x in row])
    out = dual_right_comodule(cm)
    assert out.coalgebra == co_opposite(c) and out.coaction == ref
    assert (ref != c.comult) == (host == "(kS3)*")


@pytest.mark.parametrize("block", ["transpositions", "whole"])
def test_subcoalgebra_action_tensors_match_the_reference_loops(block, transposition_block,
                                                               ks3, q_s3, bg_s3):
    # the coordinates of e_t .ad d_q in D that ad_coords held as nested dicts,
    # and D*'s action read off them, kept here as the reference
    basis = {"transpositions": transposition_block,
             "whole": [{i: F(1)} for i in range(6)]}[block]
    dd = subcoalgebra_data(basis, q_s3, bg_s3)
    m = dd.dim
    span = Subspace(list(basis), 6)
    coords = [[span.coords(bg_s3.adjoint_action.act({t: 1}, basis[qi])) for qi in range(m)]
              for t in range(6)]
    assert dd.ad_coords.dims == (6, m, m)
    assert all(dict(dd.ad_coords.row(t, qi)) == coords[t][qi]
               for t in range(6) for qi in range(m))
    action = Tensor3.from_entries((6, m, m), [(t, p, r, c) for t in range(6) for p in range(m)
                                              for r in range(m)
                                              if (c := coords[t][r].get(p))])
    assert dstar_module_algebra(dd, opposites(ks3, "op")).action == action
    assert action != dd.ad_coords


def test_nw_of_transposition_is_group_algebra_of_centralizer(ks3, bg_s3):
    w = grouplike_comodule(bg_s3, [1])
    n = adjoint_stable_algebra(w, ks3, bg_s3)
    assert n.carrier.dim == 2
    # dim-2 unital algebra with a non-unit element squaring to the unit: kZ2
    one = n.carrier.unit_sparse
    other = None
    for i in range(2):
        e = {i: F(1)}
        if e != one:
            other = e
    sq = n.carrier.mul_sparse(other, other)
    assert sq == one or n.carrier.mul_sparse(sq, sq) == sq


def test_nw_of_identity_class_is_group_algebra_op(ks3, bg_s3, s3_table):
    # W = k.e: N_W recovers kS3 with the opposite product n_c n_d = n_{dc}
    w = grouplike_comodule(bg_s3, [0])
    n = adjoint_stable_algebra(w, ks3, bg_s3)
    assert n.carrier.dim == 6
    # identify basis elements with group elements through the H leg
    labels = []
    for b in n.basis:
        nz = sorted(b)
        assert len(nz) == 1
        labels.append(nz[0] % 36 // 6 if False else (nz[0] // 6) % 6)
    for p in range(6):
        for q in range(6):
            row = n.carrier.mul_row(p, q)
            assert len(row) == 1
            k, c = row[0]
            assert c == 1
            assert labels[k] == s3_table.table[labels[q]][labels[p]]


def test_dimension_identity_on_all_examples(ks3, bg_s3):
    # dim N_W . dim D = dim H . (dim W)^2 whenever D = D_{H (x) W} is minimal;
    # the class of W's group-likes pins down D
    for indices, d_dim in (([1], 3), ([1, 2, 5], 3), ([1, 2], 3),
                           ([0], 1), ([3, 4], 2), ([3], 2)):
        w = grouplike_comodule(bg_s3, indices)
        n = adjoint_stable_algebra(w, ks3, bg_s3)
        assert n.carrier.dim * d_dim == 6 * len(indices) ** 2


def test_nw_direct_sum(ks3, bg_s3):
    # W = k.e (+) k.(12): N_W ~ N_{k.e} (+) N_{k.(12)}
    w = grouplike_comodule(bg_s3, [0, 1])
    rep = nw_direct_sum_report(w, ks3, [(0,), (1,)], bg_s3)
    assert rep.ok


def _nw_product_reference(h, nw, x, y):
    """The N_W product adjoint_stable_algebra ran by hand before it read its
    ambient, kept as a reference: x o y = sum v*_l (x) g_l h_j (x) <w*_j, v_l> w_j
    on vectors of W* (x) H (x) W at flat index (i dim H + j) dim W + w."""
    nh = h.dim

    def terms(v):
        return [(((k // nw) // nh, (k // nw) % nh, k % nw), c) for k, c in v.items()]

    out = {}
    y_terms = terms(y)
    for (cp, b, c), cx in terms(x):
        for (ap, bp, cpp), cy in y_terms:
            if cpp == cp:
                for m, cm in h.algebra.mul_row(bp, b):
                    sp_add(out, (ap * nh + m) * nw + c, cx * cy * cm)
    return out


@pytest.mark.parametrize("nw", [1, 2, 3])
@pytest.mark.parametrize("host", ["kS3", "D(kZ2)"])
def test_nw_ambient_product_matches_the_reference_loop(host, nw, ks3, double_z2):
    h = {"kS3": ks3, "D(kZ2)": double_z2[0]}[host]
    ambient = end_algebra(nw, opposite_algebra(h.algebra))
    assert ambient.dim == nw * h.dim * nw
    assert all(ambient.mul_sparse({x: 1}, {y: 1}) == _nw_product_reference(h, nw, {x: 1}, {y: 1})
               for x in range(ambient.dim) for y in range(ambient.dim))
    # the unit sum_i w*_i (x) 1 (x) w_i
    assert ambient.unit_sparse == {(i * h.dim + k) * nw + i: c for i in range(nw)
                                   for k, c in h.algebra.unit_sparse.items()}


@pytest.mark.parametrize("indices", [[0], [1, 2], [1, 2, 5]])
def test_nw_reads_its_products_in_end_of_w_dual_tensor_h_op(indices, ks3, bg_s3):
    w = grouplike_comodule(bg_s3, indices)
    n = adjoint_stable_algebra(w, ks3, bg_s3)
    assert n.ambient == end_algebra(len(indices), opposite_algebra(ks3.algebra))
    span = Subspace(list(n.basis), n.ambient.dim)
    assert all(span.coords(_nw_product_reference(ks3, w.dim, u, v))
               == dict(n.carrier.mul_row(p, q))
               for p, u in enumerate(n.basis) for q, v in enumerate(n.basis))


def test_cotensor_right_module(ks3, bg_s3):
    w = grouplike_comodule(bg_s3, [1])
    n = adjoint_stable_algebra(w, ks3, bg_s3)
    htw = n.htw
    rep = cotensor_right_module(dual_right_comodule(w), htw.as_comodule(),
                                htw.action, n)
    assert rep.ok


def test_cotensor_right_module_fault(ks3, bg_s3):
    w = grouplike_comodule(bg_s3, [1])
    n = adjoint_stable_algebra(w, ks3, bg_s3)
    htw = n.htw
    dense = htw.action.dense()
    # corrupt the H-action on H (x) W
    dense[1][0] = [F(0)] * len(dense[1][0])
    bad = Tensor3.from_dense(dense)
    rep = cotensor_right_module(dual_right_comodule(w), htw.as_comodule(), bad, n)
    assert not rep.ok
    assert [(c.name, c.witness) for c in rep.failures()] == [("module_law", (0, 1, 1))]


def _reproduces(n_alg, v_action, basis_v, name, witness):
    """Whether the reference loops fail the row name at witness."""
    act = cotensor_act_reference(n_alg, v_action)
    t, n_basis = basis_v[witness[0]], n_alg.basis
    if name == "action_preserves_cotensor":
        return not Subspace(basis_v, n_alg.w.dim * v_action.dims[1]).contains(
            act(t, n_basis[witness[1]]))
    if name == "module_law":
        p, q = n_basis[witness[1]], n_basis[witness[2]]
        return act(t, n_alg.ambient.mul_sparse(p, q)) != act(act(t, p), q)
    return act(t, n_alg.ambient.unit_sparse) != t


@pytest.mark.parametrize("indices, planes", [([1], range(6)), ([1, 2], (1, 2))],
                         ids=["k(12)", "k(12)+k(13)"])
def test_cotensor_right_module_matches_the_reference_loops(indices, planes, ks3, bg_s3,
                                                           monkeypatch):
    # W spanned by group-likes and V = H (x) W: the existing fault, the +1
    # twins of V's action on the given planes, and twins of the cotensor
    # basis of W* [] V.  Each row passes or fails with the reference, and a
    # witness is one the reference fails at; once the action leaves the
    # cotensor, both law rows fail at that row's witness, as nothing can be
    # read in cotensor coordinates.  Only on k(12) + k(13) is N_W's unit not
    # its first basis vector, and does a module law fail at some p != q
    from hopfsmash import adjstable
    w = grouplike_comodule(bg_s3, indices)
    n = adjoint_stable_algebra(w, ks3, bg_s3)
    wd, v_com = dual_right_comodule(w), n.htw.as_comodule()
    basis_v = cotensor(wd, v_com)
    fault = n.htw.action.dense()
    fault[1][0] = [F(0)] * len(fault[1][0])
    cases = [("fault", Tensor3.from_dense(fault), basis_v)]
    _, d1, d2 = n.htw.action.dims
    for i, j, k in itertools.product(planes, range(d1), range(d2)):
        cells = n.htw.action.dense()
        cells[i][j][k] += 1
        cases.append(("+1", Tensor3.from_dense(cells), basis_v))
    cases += [("basis", n.htw.action, twin)
              for twin in _twins(basis_v, w.dim * v_com.dim, (1,))]
    failed = set()
    for kind, action, basis in cases:
        with monkeypatch.context() as patch:
            patch.setattr(adjstable, "cotensor", lambda wd, m: basis)
            rep = cotensor_right_module(wd, v_com, action, n)
        ref = cotensor_right_module_reference(n, action, basis)
        assert [c.name for c in rep.checks] == [name for name, _ in ref]
        if rep.checks[0].passed:
            assert [c.passed for c in rep.checks] == [wit is None for _, wit in ref]
            assert all(c.passed or _reproduces(n, action, basis, c.name, c.witness)
                       for c in rep.checks)
        else:
            witness = rep.checks[0].witness
            assert ref[0][1] is not None
            assert _reproduces(n, action, basis, "action_preserves_cotensor", witness)
            assert [(c.passed, c.witness) for c in rep.checks] == [(False, witness)] * 3
        failed.update((kind, c.name) for c in rep.failures())
    assert {("fault", "module_law"), ("+1", "module_law"), ("+1", "unit_acts_trivially"),
            ("+1", "action_preserves_cotensor"),
            ("basis", "action_preserves_cotensor")} <= failed


def test_subcoalgebra_closure_guard(q_s3, bg_s3):
    # a non-closed subspace must be refused by name
    with pytest.raises(HypothesisFailure) as ei:
        subcoalgebra_data([{1: F(1)}, {2: F(1)}], q_s3, bg_s3)
    assert "D-closed" in str(ei.value) or "adjoint" in str(ei.value)


def test_psi_phi_identity_class(q_s3, bg_s3):
    pp = psi_phi([{0: F(1)}], q_s3, bg_s3)
    assert pp.report.ok
    assert pp.nd.carrier.dim == 6


def test_psi_phi_transpositions(transposition_block, q_s3, bg_s3):
    pp = psi_phi(transposition_block, q_s3, bg_s3)
    assert pp.report.ok
    assert pp.nd.carrier.dim == 18
    assert pp.psi.compose(pp.phi).is_identity()
    assert pp.phi.compose(pp.psi).is_identity()


def test_psi_phi_transpositions_pinned(transposition_block, q_s3, bg_s3, structure_digest):
    # N_D's multiplication and Psi/Phi, pinned: coordinates in the cotensor
    # basis must come out exactly as pinned
    pp = psi_phi(transposition_block, q_s3, bg_s3)
    assert structure_digest(pp.nd.carrier.mult, pp.nd.carrier.unit) == "cbd871625bba9930"
    assert structure_digest(pp.psi.matrix, pp.phi.matrix) == "9328ec19c4ab5b7c"


def test_psi_phi_on_a_block_with_noncocommutative_delta_r(double_s3):
    # the 4-dimensional block of H_R(D(kS3)): Delta_R restricted to it is not
    # cocommutative, so only the coaction dual to Delta_R|_D makes Phi land in N_D
    from hopfsmash.qtriang import transmute
    q = double_s3[1]
    bg = transmute(q)
    block = next(b for b in decompose_hr(bg).blocks if len(b) == 4)
    dd = subcoalgebra_data(block, q, bg)
    assert any(dd.coalgebra.comult.entry(p, a, b) != dd.coalgebra.comult.entry(p, b, a)
               for p in range(4) for a in range(4) for b in range(4))
    pp = psi_phi(block, q, bg)
    assert pp.report.ok
    assert pp.nd.carrier.dim == 36 * 4
    assert pp.psi.compose(pp.phi).is_identity()
    assert pp.phi.compose(pp.psi).is_identity()


def test_psi_phi_whole_hr(q_s3, bg_s3):
    pp = psi_phi([{i: F(1)} for i in range(6)], q_s3, bg_s3)
    assert pp.report.ok
    assert pp.nd.carrier.dim == 36


def test_nd_transport_transpositions(transposition_block, q_s3, ip_s3, bg_s3,
                                     hr_decomposition):
    rep = nd_transport_report(transposition_block, q_s3, ip_s3, bg_s3, hr_decomposition)
    assert rep.ok
    for name in ("alpha_equals_trace_of_dstar", "comult_matches_dual_closed_form",
                 "counit_matches_lambda_pairing", "antipode_matches_dual_closed_form",
                 "smash_is_almost_triangular", "nd_is_almost_triangular",
                 "nw_blocks_proportional_to_nd_blocks"):
        assert rep.find(name).passed, name


def test_nd_transport_requires_almost_triangular(double_s3, ip_s3):
    dd, q = double_s3
    # D(kS3) is not almost-triangular; the guard fires before anything is built
    with pytest.raises(HypothesisFailure) as ei:
        nd_transport_report([{0: F(1)}], q, ip_s3)
    assert "almost-triangular" in str(ei.value)


def test_hr_and_trace_separability_idempotents_coincide(q_s3, ip_s3, bg_s3,
                                                        transposition_block):
    # the braided-dual idempotent restricted to D and the trace-form Casimir
    # of D* are the same element (symmetric idempotents are unique here)
    from hopfsmash.qtriang import hr_dual_separability
    from hopfsmash.modalg import separability
    pp = psi_phi(transposition_block, q_s3, bg_s3)
    x_full, _ = hr_dual_separability(q_s3, ip_s3, bg_s3)
    m = pp.dd.dim
    restricted = {}
    for (a, b), c in x_full.items():
        for p in range(m):
            for q2 in range(m):
                w = c * pp.dd.basis[p].get(a, 0) * pp.dd.basis[q2].get(b, 0)
                if w != 0:
                    restricted[(p, q2)] = restricted.get((p, q2), 0) + w
    casimir = separability(pp.dstar_mod)
    assert restricted == {k: v for k, v in casimir.x.items()}


# ---------------------------------------------------------------------------
# the sites that read Subspace.restricted, against the loops they replaced
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["kS3", "D(kZ3)", "D(kS3)"])
def hr_world(request):
    """(q, bg, the blocks of H_R): kS3 under the trivial R, D(kZ3) and D(kS3)."""
    from hopfsmash.hopfcore import drinfeld_double, group_algebra
    from hopfsmash.qtriang import transmute
    q = {"kS3": lambda: request.getfixturevalue("q_s3"),
         "D(kZ3)": lambda: drinfeld_double(group_algebra(dm.cyclic_table(3)))[1],
         "D(kS3)": lambda: request.getfixturevalue("double_s3")[1]}[request.param]()
    bg = transmute(q)
    return q, bg, decompose_hr(bg).blocks


def _twins(vectors, n, shifts=(1, 2)):
    """The given vectors with one of them moved, its indices shifted by each
    of the shifts mod n; only twins whose vectors stay independent."""
    for i, v in enumerate(vectors):
        for s in shifts:
            twin = list(vectors)
            twin[i] = {(k + s) % n: c for k, c in v.items()}
            if rank(twin, n) == len(twin):
                yield twin


def _refusal(build):
    """(type, name, witness) of the refusal build() raises, or None."""
    try:
        build()
    except HypothesisFailure as e:
        return type(e), e.hypothesis, e.witness
    except ValueError as e:
        return type(e), str(e), None
    return None


def _typed_cells(t):
    d0, d1, _ = t.dims
    return [(i, j, k, c, type(c)) for i in range(d0) for j in range(d1) for k, c in t.row(i, j)]


def _subcoalgebra_reference(d_basis, q, bg):
    """The loops subcoalgebra_data ran before it read Subspace.restricted:
    (Delta_R on D, ad_coords) as Tensor3s, or their HypothesisFailure.  The
    first-leg stage takes b in the insertion order of Delta_R(d_p)."""
    h = q.host
    nh = h.dim
    d_basis = list(d_basis)
    m = len(d_basis)
    span = Subspace(d_basis, nh)
    comult_entries = []
    for p in range(m):
        bycol = {}
        for (a, b), c in bg.braided_coalgebra.comul_sparse(d_basis[p]).items():
            bycol.setdefault(b, {})[a] = c
        col_coords = {}
        for b, col in bycol.items():
            cc = span.coords(col)
            if cc is None:
                raise HypothesisFailure("D-closed-under-Delta_R-first-leg", (p, b))
            col_coords[b] = cc
        for qidx in range(m):
            rc = span.coords({b: cc[qidx] for b, cc in col_coords.items() if qidx in cc})
            if rc is None:
                raise HypothesisFailure("D-closed-under-Delta_R-second-leg", (p, qidx))
            comult_entries.extend((p, qidx, r, c) for r, c in rc.items())
    ad_entries = []
    for t in range(nh):
        for qidx in range(m):
            cc = span.coords(bg.adjoint_action.act({t: 1}, d_basis[qidx]))
            if cc is None:
                raise HypothesisFailure("D-closed-under-adjoint-action", (t, qidx))
            ad_entries.extend((t, qidx, p, c) for p, c in cc.items())
    return (Tensor3.from_entries((m, m, m), comult_entries),
            Tensor3.from_entries((nh, m, m), ad_entries))


def _yd_summand_reference(h, block, bg):
    """The loops yd_summand_from_block ran before it read Subspace.restricted:
    (action, coaction) as Tensor3s, or their HypothesisFailure."""
    n = h.dim
    block = list(block)
    m = len(block)
    span = Subspace(block, n)
    a_entries = []
    for t in range(n):
        for p in range(m):
            cc = span.coords(bg.adjoint_action.act({t: 1}, block[p]))
            if cc is None:
                raise HypothesisFailure("block-ad-stable", (t, p))
            a_entries.extend((t, p, r, c) for r, c in cc.items())
    c_entries = []
    for p in range(m):
        bycol = {}
        for (a, b), c in h.coalgebra.comul_sparse(block[p]).items():
            bycol.setdefault(a, {})[b] = c
        for a, col in bycol.items():
            cc = span.coords(col)
            if cc is None:
                raise HypothesisFailure("block-coproduct-stable", (p, a))
            c_entries.extend((p, a, r, c) for r, c in cc.items())
    return Tensor3.from_entries((n, m, m), a_entries), Tensor3.from_entries((m, n, m), c_entries)


def _nw_mult_reference(ambient, basis):
    """The loop adjoint_stable_algebra ran for N_W's product before it read
    Subspace.restricted: the product tensor in the cotensor basis, or its
    ValueError."""
    m = len(basis)
    span = Subspace(basis, ambient.dim)
    entries = []
    for p in range(m):
        for q in range(m):
            cell = span.coords(ambient.mul_sparse(basis[p], basis[q]))
            if cell is None:
                raise ValueError(f"product of cotensor basis {p}, {q} leaves the cotensor")
            entries.extend((p, q, k, v) for k, v in cell.items())
    return Tensor3.from_entries((m, m, m), entries)


# first-leg witnesses (reference, restricted) on the twins of each host's
# blocks: the reference takes b in Delta_R(d_p)'s insertion order,
# Subspace.restricted the least b
FIRST_LEG_MOVES = {
    "kS3": [],
    "D(kZ3)": [((0, 8), (0, 5)), ((0, 7), (0, 4)), ((0, 8), (0, 5))],
    "D(kS3)": [((0, 2), (0, 1)), ((0, 2), (0, 1)), ((0, 24), (0, 18)), ((0, 24), (0, 18)),
               ((0, 2), (0, 1)), ((1, 4), (1, 3)), ((2, 18), (2, 12)), ((0, 29), (0, 11)),
               ((0, 29), (0, 11)), ((1, 23), (1, 17)), ((1, 23), (1, 17)), ((0, 2), (0, 1)),
               ((1, 4), (1, 3)), ((2, 18), (2, 12)), ((0, 29), (0, 11)), ((0, 29), (0, 11)),
               ((1, 23), (1, 17)), ((1, 23), (1, 17)), ((0, 31), (0, 19)), ((1, 31), (1, 19))],
}


def test_subcoalgebra_data_matches_the_reference_loops(hr_world, request):
    q, bg, blocks = hr_world
    n = q.host.dim
    moves = []
    for blk in blocks:
        dd = subcoalgebra_data(blk, q, bg)
        comult, ad = _subcoalgebra_reference(blk, q, bg)
        assert _typed_cells(dd.coalgebra.comult) == _typed_cells(comult)
        assert _typed_cells(dd.ad_coords) == _typed_cells(ad)
        for twin in _twins(blk, n):
            got = _refusal(lambda: subcoalgebra_data(twin, q, bg))
            ref = _refusal(lambda: _subcoalgebra_reference(twin, q, bg))
            assert (got is None) == (ref is None)
            if ref is None:
                continue
            assert got[:2] == ref[:2]
            if got[2] != ref[2]:
                assert ref[1] == "D-closed-under-Delta_R-first-leg" and got[2][0] == ref[2][0]
                moves.append((ref[2], got[2]))
    assert moves == FIRST_LEG_MOVES[request.node.callspec.id]


def test_yd_summand_matches_the_reference_loops(hr_world):
    q, bg, blocks = hr_world
    h = q.host
    refused = 0
    for blk in blocks:
        yd = yd_summand_from_block(h, blk, bg)
        action, coaction = _yd_summand_reference(h, blk, bg)
        assert _typed_cells(yd.action) == _typed_cells(action)
        assert _typed_cells(yd.coaction) == _typed_cells(coaction)
        for twin in _twins(blk, h.dim):
            ref = _refusal(lambda: _yd_summand_reference(h, twin, bg))
            assert _refusal(lambda: yd_summand_from_block(h, twin, bg)) == ref
            refused += ref is not None
    assert refused > 0


def test_nw_product_matches_the_reference_loop(hr_world, monkeypatch):
    # N_D for the blocks of up to four vectors, and twins of its cotensor
    # basis fed to adjoint_stable_algebra in place of the cotensor
    from hopfsmash import adjstable
    q, bg, blocks = hr_world
    h = q.host
    refused = 0
    for blk in (b for b in blocks if len(b) <= 4):
        w = psi_phi(blk, q, bg).nd.w    # D with the coaction Delta_R|_D
        nw = adjoint_stable_algebra(w, h, bg)
        basis = list(nw.basis)
        assert _typed_cells(nw.carrier.mult) == _typed_cells(_nw_mult_reference(nw.ambient, basis))
        for twin in _twins(basis[:3], nw.ambient.dim, (1,)):
            twin += basis[3:]
            if rank(twin, nw.ambient.dim) < len(twin):
                continue
            with monkeypatch.context() as patch:
                patch.setattr(adjstable, "cotensor", lambda wd, m: twin)
                got = _refusal(lambda: adjoint_stable_algebra(w, h, bg))
            ref = _refusal(lambda: _nw_mult_reference(nw.ambient, twin))
            assert got == ref or (ref is None and "leaves the cotensor" not in got[1])
            refused += ref is not None
    assert refused > 0


def test_d_v_check_matches_the_reference_loop(ks3, q_s3, bg_s3, hr_decomposition, monkeypatch):
    # yd_to_comodule on twins of D_V's basis: the same first (t, u) whose
    # e_t .ad u leaves D_V as the scan over contains
    from hopfsmash import adjstable
    blk = hr_decomposition.blocks[2]
    yd = yd_summand_from_block(ks3, blk, bg_s3)
    refused = 0
    for twin in _twins(list(blk), 6):
        span = Subspace(twin, 6)
        ref = next(((t, ui) for t in range(6) for ui, u in enumerate(twin)
                    if not span.contains(bg_s3.adjoint_action.act({t: 1}, u))), None)
        monkeypatch.setattr(adjstable, "span_closure", lambda seed, images, dim: twin)
        got = _refusal(lambda: yd_to_comodule(yd, q_s3, bg_s3))
        assert got == (None if ref is None else
                       (HypothesisFailure, "yd_to_comodule:d_v_is_H_module_subspace", ref))
        refused += ref is not None
    assert refused > 0


# ---------------------------------------------------------------------------
# Psi, Phi and D's coaction against the loops they replaced
# ---------------------------------------------------------------------------

def _coaction_reference(dd, nh):
    """The loop psi_phi read D's coaction from before Subspace.restricted:
    rho(d_p) = sum (first leg as an H-vector) (x) d_r over Delta_R|_D(d_p)."""
    m = dd.dim
    entries = []
    for p in range(m):
        for qidx, ridx, c in dd.coalgebra.comul_row(p):
            for a, ca in dd.basis[qidx].items():
                entries.append((p, a, ridx, c * ca))
    return Tensor3.from_entries((m, nh, m), entries)


def _psi_reference(pp, h):
    """The loop psi_phi ran for Psi before it read the factor inclusions:
    sum eps(d) (d* <<- h_(1)) # h_(2) on each cotensor basis vector of N_D."""
    m, nh = pp.dd.dim, h.dim
    counit = pp.dd.coalgebra.counit
    cols = []
    for t in pp.nd.basis:
        col = {}
        for k, ct in t.items():
            (p, j), r = divmod(k // m, nh), k % m
            ce = counit[r]
            if ce == 0:
                continue
            for j1, j2, c in h.coalgebra.comul_row(j):
                for ridx, cc in pp.dstar_mod.action.row(j1, p):
                    sp_add(col, ridx * nh + j2, ct * ce * c * cc)
        cols.append(col)
    return cols


def _phi_reference(pp, h):
    """The loop psi_phi ran for Phi before it read Theta:
    (d*_<0> <<- S(h_(1))) (x) h_(2) (x) d*_<1> in N_D's coordinates, with
    rho(d*_p) = sum d*_q (x) d_r over the terms d_r (x) d_p of Delta_R(d_q);
    or the HypothesisFailure of the first column outside N_D."""
    dd, m, nh = pp.dd, pp.dd.dim, h.dim
    moved = pp.dstar_mod.action.row
    rho = [[] for _ in range(m)]
    for qidx in range(m):
        for ridx, p, wc in dd.coalgebra.comul_row(qidx):
            rho[p].append((qidx, ridx, wc))
    nd_span = Subspace(pp.nd.basis, m * nh * m)
    cols = []
    for p in range(m):
        for j in range(nh):
            col = {}
            for j1, j2, c in h.coalgebra.comul_row(j):
                for qidx, ridx, wc in rho[p]:
                    for t, cs in h.antipode.cols[j1].items():
                        for q2, ca in moved(t, qidx):
                            sp_add(col, (q2 * nh + j2) * m + ridx, c * wc * cs * ca)
            coords = nd_span.coords(col)
            if coords is None:
                raise HypothesisFailure("phi-coaction-convention", (len(cols),))
            cols.append(coords)
    return cols


def _typed_cols(cols):
    return [sorted((k, c, type(c)) for k, c in col.items()) for col in cols]


# the sizes of the blocks of H_R with at most nine vectors, per host
SMALL_BLOCKS = {"kS3": [1, 2, 3], "D(kZ3)": [3, 3, 3], "D(kS3)": [1, 1, 4, 9, 9]}


def test_psi_phi_match_the_reference_loops(hr_world, request):
    # D's coaction by Subspace.restricted, Psi from the factor inclusions and
    # Phi as Theta, cell for cell with scalar types; D(kS3)'s 4-block is one
    # on which Delta_R|_D is not cocommutative
    q, bg, blocks = hr_world
    h = q.host
    sizes = []
    for blk in (b for b in blocks if len(b) <= 9):
        pp = psi_phi(blk, q, bg)
        assert _typed_cells(pp.nd.w.coaction) == _typed_cells(_coaction_reference(pp.dd, h.dim))
        assert _typed_cols(pp.psi.cols) == _typed_cols(_psi_reference(pp, h))
        assert _typed_cols(pp.phi.cols) == _typed_cols(_phi_reference(pp, h))
        sizes.append(len(blk))
    assert sorted(sizes) == SMALL_BLOCKS[request.node.callspec.id]


def test_psi_phi_refuses_a_phi_column_outside_nd(transposition_block, q_s3, monkeypatch):
    # one Theta column moved off N_D: psi_phi refuses it by name, with that
    # column's index as witness
    from hopfsmash import adjstable
    from hopfsmash.qtriang import transmute
    theta_columns = adjstable.theta_columns

    def one_moved(s, carrier):
        cols = theta_columns(s, carrier)
        cols[4] = {(k + 1) % carrier.dim: c for k, c in cols[4].items()}
        return cols

    monkeypatch.setattr(adjstable, "theta_columns", one_moved)
    with pytest.raises(HypothesisFailure) as ei:
        psi_phi(transposition_block, q_s3, transmute(q_s3))
    assert (ei.value.hypothesis, ei.value.witness) == ("phi-coaction-convention", (4,))
