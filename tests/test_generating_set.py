"""Certified generating sets and the axiom scans reduced to A x S.

`generating_set` is checked against an independent span closure, and the
reduced associativity, Delta- and eps-multiplicativity scans, the
braided-group module law, measuring law and Delta_R module map, and the
intertwining law of strong and weak R-matrices, are checked against full
scans kept here: a full-scan reference report (every index
taken as a generator, so each reduced scan is the full scan) and brute-force
first failures written with plain dict arithmetic.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmash import demos as dm
from hopfsmash import hopfcore
from hopfsmash.exactlin import LinearMap, Subspace, Tensor3, TensorElem
from hopfsmash.hopfcore import (
    StructureAlgebra,
    StructureCoalgebra,
    coassociativity_failures,
    drinfeld_double,
    generating_set,
    group_algebra,
    heisenberg_double,
    verify_algebra,
    verify_coalgebra,
    verify_hopf,
)
from hopfsmash.qtriang import (
    BraidedGroupData,
    QTStructure,
    hr_star_algebra,
    transmute,
    verify_braided_group,
    verify_qt,
)
from hopfsmash.weakhopf import WeakHopfData, WeakQTStructure, verify_weak_bialgebra, verify_weak_qt
from reference import generating_set_reference, span_of

DELTAS = (F(1), F(-1), F(2), F(1, 2))


@pytest.fixture(scope="module")
def double_z3():
    return drinfeld_double(group_algebra(dm.cyclic_table(3)))


@pytest.fixture(scope="module")
def hosts(ks3, double_z2, double_z3, sws18):
    """The objects whose constants the sweeps perturb."""
    return {"kS3": ks3, "D(kZ2)": double_z2[0], "D(kZ3)": double_z3[0],
            "k3#kS3": sws18.wha}


# ---------------------------------------------------------------------------
# references kept in the test
# ---------------------------------------------------------------------------

def _add(acc, key, c):
    w = acc.get(key, 0) + c
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _mul(alg, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, w in alg.mult.row(i, j):
                _add(out, k, a * b * w)
    return out


def _closure(alg, gens):
    """Span of the left-normed words in gens: W := W + W gens until stable."""
    n = alg.dim
    vecs = [{s: F(1)} for s in gens]
    while True:
        space = Subspace(vecs, n)
        grown = [_mul(alg, w, {s: F(1)}) for w in space.basis for s in gens]
        new = [w for w in grown if not space.contains(w)]
        if not new:
            return space
        vecs = list(space.basis) + new


def _first_assoc_failure(alg, middle=None):
    n = alg.dim
    for i in range(n):
        for j in range(n) if middle is None else middle:
            for k in range(n):
                e = {i: F(1)}, {j: F(1)}, {k: F(1)}
                if _mul(alg, _mul(alg, e[0], e[1]), e[2]) != _mul(alg, e[0], _mul(alg, e[1], e[2])):
                    return (i, j, k)
    return None


def _comul(coal, u):
    out = {}
    for i, c in u.items():
        for a in range(coal.dim):
            for b, w in coal.comult.row(i, a):
                _add(out, (a, b), c * w)
    return out


def _first_comult_failure(alg, coal, right=None):
    n = alg.dim
    for i in range(n):
        for j in range(n) if right is None else right:
            lhs = _comul(coal, _mul(alg, {i: F(1)}, {j: F(1)}))
            rhs = {}
            for (a, b), c in _comul(coal, {i: F(1)}).items():
                for (x, y), d in _comul(coal, {j: F(1)}).items():
                    for p, cp in _mul(alg, {a: F(1)}, {x: F(1)}).items():
                        for q, cq in _mul(alg, {b: F(1)}, {y: F(1)}).items():
                            _add(rhs, (p, q), c * d * cp * cq)
            if lhs != rhs:
                return (i, j)
    return None


def _first_counit_failure(alg, eps, right=None):
    n = alg.dim
    for i in range(n):
        for j in range(n) if right is None else right:
            if sum((c * eps[k] for k, c in alg.mult.row(i, j)), F(0)) != eps[i] * eps[j]:
                return (i, j)
    return None


def _full_scan_reports(h, weak):
    """Report dicts with every index as a generator: each reduced scan is then
    the full scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StructureAlgebra, "generators", property(lambda a: tuple(range(a.dim))))
        return _reports(h, weak)


def _reports(h, weak):
    second = verify_weak_bialgebra(h) if weak else verify_hopf(h)
    return verify_algebra(h.algebra).to_dict(), second.to_dict()


def _perturbed_t3(t, i, j, k, delta):
    cells = {(a, b): dict(t.row(a, b)) for a in range(t.dims[0]) for b in range(t.dims[1])}
    _add(cells[(i, j)], k, delta)
    return Tensor3.from_row_dicts(t.dims, cells)


def _perturbed(h, which, i, j, k, delta):
    n = h.dim
    if which == "counit":
        counit = list(h.counit)
        counit[i] += delta
        return type(h)(h.algebra, StructureCoalgebra(n, h.comult, tuple(counit)), h.antipode)
    bad = _perturbed_t3(h.mult if which == "mult" else h.comult, i, j, k, delta)
    if which == "mult":    # the twin tries the host's S first, so a double keeps its S
        alg = StructureAlgebra(n, bad, h.unit)
        vars(alg)["generators"] = generating_set(alg, h.algebra.generators)
        return type(h)(alg, h.coalgebra, h.antipode)
    return type(h)(h.algebra, StructureCoalgebra(n, bad, h.counit), h.antipode)


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

def _test_algebras(hosts):
    algs = {name: h.algebra for name, h in hosts.items()}
    algs["kZ2"] = dm.k_z2().algebra
    algs["Heis(kZ2)"] = heisenberg_double(dm.k_z2())
    return algs


def _whole(alg):
    return Subspace([{i: F(1)} for i in range(alg.dim)], alg.dim)


def test_closure_of_generators_is_whole_algebra(hosts, b54):
    # both the basis-order S and the cached S (codec-ordered on the doubles) span A
    for name, alg in {**_test_algebras(hosts), "B": b54.wha.algebra}.items():
        assert alg.generators == generating_set(alg, alg.generators), name
        for gens in (generating_set(alg), alg.generators):
            assert list(gens) == sorted(set(gens)), name
            assert span_of(_closure(alg, gens)) == span_of(_whole(alg)), name


def test_generators_are_greedy_in_basis_order(hosts):
    # each index joins S exactly when e_i is outside the closure of the ones before it
    for name, alg in _test_algebras(hosts).items():
        gens = generating_set(alg)
        for i in range(alg.dim):
            earlier = [s for s in gens if s < i]
            outside = not _closure(alg, earlier).contains({i: F(1)})
            assert outside == (i in gens), (name, i)
        if name in ("kS3", "D(kZ3)", "k3#kS3"):
            assert len(gens) < alg.dim, name


def test_closure_is_a_subspace_not_an_index_set():
    # e0 e0 = e1 + e2 and every other product zero: the support of the words
    # in e0 is every index, but their span misses e1 - e2
    alg = StructureAlgebra(3, Tensor3.from_row_dicts((3, 3, 3), {(0, 0): {1: F(1), 2: F(1)}}),
                           (F(0), F(0), F(0)))
    assert generating_set(alg) == (0, 1)


def test_words_are_left_normed():
    # e0 e0 = e1 and e1 e0 = e2, while e0 e1 = 0: the words (e0 e0) e0 ... reach
    # e2, the words e0 (e0 e0) ... do not
    alg = StructureAlgebra(3, Tensor3.from_row_dicts((3, 3, 3), {(0, 0): {1: F(1)},
                                                                 (1, 0): {2: F(1)}}),
                           (F(0), F(0), F(0)))
    assert generating_set(alg) == (0,)


def test_zero_product_needs_every_index():
    alg = StructureAlgebra(3, Tensor3.from_row_dicts((3, 3, 3), {}), (F(0),) * 3)
    assert generating_set(alg) == (0, 1, 2)
    assert verify_algebra(alg).find("associativity").passed


def test_stored_cells_give_the_mul_sparse_closure(ks3, kz2, double_s3, b54, bg_s3, hosts,
                                                  monkeypatch):
    # a one-entry row of W is e_k, so generating_set copies the cell (k, s)
    # where the closure kept in tests/reference.py calls mul_sparse: the same
    # S, in basis order and from a reversed `first`, on the hosts and on
    # every +1 single-cell twin of the product of kZ2 and kS3
    worlds = [ks3.algebra, hosts["D(kZ2)"].algebra, double_s3[0].algebra,
              hosts["k3#kS3"].algebra, b54.wha.algebra, hr_star_algebra(bg_s3)]
    for h in (kz2, ks3):
        n = h.dim
        worlds += [StructureAlgebra(n, _perturbed_t3(h.mult, i, j, k, 1), h.unit)
                   for i in range(n) for j in range(n) for k in range(n)]
    assert len(worlds) == 6 + 8 + 216
    calls = {"kernel": 0, "reference": 0}
    real = StructureAlgebra.mul_sparse
    side = "kernel"

    def counted(alg, a, b):
        calls[side] += 1
        return real(alg, a, b)

    monkeypatch.setattr(StructureAlgebra, "mul_sparse", counted)
    for alg in worlds:
        for first in ((), tuple(reversed(range(alg.dim)))):
            side = "kernel"
            got = generating_set(alg, first)
            side = "reference"
            assert got == generating_set_reference(alg, first), (alg.dim, first)
    # both branches ran: products of one-entry rows skipped, the others formed
    assert 0 < calls["kernel"] < calls["reference"]


# ---------------------------------------------------------------------------
# reduced scans against full scans
# ---------------------------------------------------------------------------

def test_assoc_witness_with_middle_outside_s(ks3):
    # every perturbed mult constant of kS3 whose first failing triple has its
    # middle index outside S is still rejected, with that triple as witness
    hits = 0
    for i in range(6):
        for j in range(6):
            for k in range(6):
                bad = _perturbed(ks3, "mult", i, j, k, F(1))
                first = _first_assoc_failure(bad.algebra)
                rep = verify_algebra(bad.algebra)
                assert rep.find("associativity").witness == first
                if first is not None and first[1] not in bad.algebra.generators:
                    hits += 1
    assert hits > 0


def test_comult_witness_with_right_index_outside_s(ks3):
    hits = 0
    for i in range(6):
        for j in range(6):
            for k in range(6):
                bad = _perturbed(ks3, "comult", i, j, k, F(-1))
                first = _first_comult_failure(bad.algebra, bad.coalgebra)
                rep = verify_hopf(bad)
                assert rep.find("comult_multiplicative").witness == first, (i, j, k)
                if first is not None and first[1] not in bad.algebra.generators:
                    hits += 1
    assert hits > 0


def test_faults_seen_only_through_the_last_generator(hosts):
    # D(kZ3), S = (1, 4, 7), the arrows p_a >< g: each fault below breaks its
    # law for the generator 7 alone, so a scan over S without its last element
    # passes it
    h = hosts["D(kZ3)"]
    gens = (1, 4, 7)
    assert h.algebra.generators == gens
    bad = _perturbed(h, "mult", 7, 7, 0, F(1))
    assert bad.algebra.generators == gens
    assert _first_assoc_failure(bad.algebra, gens[:-1]) is None
    first = _first_assoc_failure(bad.algebra)
    assert first is not None
    assert verify_algebra(bad.algebra).find("associativity").witness == first
    bad = _perturbed(h, "comult", 7, 0, 6, F(1))
    assert _first_comult_failure(bad.algebra, bad.coalgebra, gens[:-1]) is None
    first = _first_comult_failure(bad.algebra, bad.coalgebra)
    assert first is not None
    rep = verify_hopf(bad)
    assert rep.find("algebra.associativity").passed
    assert rep.find("comult_multiplicative").witness == first


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduced_scans_match_full_scans(hosts, data):
    name = data.draw(st.sampled_from(("kS3", "D(kZ2)", "D(kZ3)", "k3#kS3")))
    which = data.draw(st.sampled_from(("mult", "comult", "counit")))
    h = hosts[name]
    n = h.dim
    unit_rows = sorted(i for i, c in enumerate(h.unit) if c != 0)
    index = st.integers(0, n - 1)
    i = data.draw(st.one_of(st.sampled_from(unit_rows), index))
    j, k = data.draw(index), data.draw(index)
    bad = _perturbed(h, which, i, j, k, data.draw(st.sampled_from(DELTAS)))
    weak = isinstance(h, WeakHopfData)
    reports = _reports(bad, weak)
    assert reports == _full_scan_reports(bad, weak)
    assoc = reports[0]["checks"][1]
    assert assoc["axiom"] == "associativity"
    first = _first_assoc_failure(bad.algebra)
    assert assoc.get("witness") == (None if first is None else list(first))


def test_unperturbed_hosts_pass(hosts):
    for name, h in hosts.items():
        weak = isinstance(h, WeakHopfData)
        rep = (verify_weak_bialgebra if weak else verify_hopf)(h)
        assert rep.ok, name


def test_failed_associativity_falls_back_to_full_scans(ks3):
    # this fault breaks associativity, and Delta and eps multiplicativity only
    # at right arguments outside S = (0, 1, 2): the reductions, which assume
    # associativity, would pass it, so both laws are scanned in full
    bad = _perturbed(ks3, "mult", 0, 3, 0, F(1))
    gens = (0, 1, 2)
    assert ks3.algebra.generators == bad.algebra.generators == gens
    assert _first_comult_failure(bad.algebra, bad.coalgebra, gens) is None
    assert _first_counit_failure(bad.algebra, bad.counit, gens) is None
    comult_first = _first_comult_failure(bad.algebra, bad.coalgebra)
    counit_first = _first_counit_failure(bad.algebra, bad.counit)
    rep = verify_hopf(bad)
    assert not rep.find("algebra.associativity").passed
    assert rep.find("comult_multiplicative").witness == comult_first
    assert rep.find("counit_multiplicative").witness == counit_first
    weak = verify_weak_bialgebra(WeakHopfData.from_hopf(bad))
    assert weak.find("comult_multiplicative").witness == comult_first


def _first_coassoc_failure(coal):
    for w in range(coal.dim):
        d = _comul(coal, {w: F(1)})
        lhs, rhs = {}, {}
        for (a, b), c in d.items():
            for (p, q), cc in _comul(coal, {a: F(1)}).items():
                _add(lhs, (p, q, b), c * cc)
            for (p, q), cc in _comul(coal, {b: F(1)}).items():
                _add(rhs, (a, p, q), c * cc)
        if lhs != rhs:
            return (w,)
    return None


@pytest.fixture
def coassoc_scans(monkeypatch):
    """The index lists coassociativity is scanned on, in call order."""
    seen = []

    def spy(rows, comul_rows, indices=None):
        seen.append(list(indices))
        return coassociativity_failures(rows, comul_rows, indices)

    monkeypatch.setattr(hopfcore, "coassociativity_failures", spy)
    return seen


def test_coassociativity_on_s_reruns_the_full_scan(coassoc_scans):
    # kZ3 with Delta(g^k) = g^k (x) g^2k: multiplicative, since k |-> 2k is a
    # homomorphism, but (Delta (x) id) Delta(g^k) = g^k (x) g^2k (x) g^2k and
    # (id (x) Delta) Delta(g^k) = g^k (x) g^2k (x) g^4k part at k = 1, 2.  With
    # S = (2,) the scan on S fails at (2,); the witness is the full scan's (1,)
    kz3 = group_algebra(dm.cyclic_table(3))
    alg = StructureAlgebra(3, kz3.mult, kz3.unit)
    vars(alg)["generators"] = generating_set(alg, (2,))
    assert alg.generators == (2,)
    coal = StructureCoalgebra(3, Tensor3.from_entries(
        (3, 3, 3), [(k, k, 2 * k % 3, 1) for k in range(3)]), kz3.counit)
    bad = type(kz3)(alg, coal, kz3.antipode)
    assert _first_comult_failure(alg, coal) is None
    assert _first_coassoc_failure(coal) == (1,)
    assert next(coassociativity_failures(coal.rows, coal.rows, alg.generators)) == (2,)
    for verify, host in ((verify_hopf, bad), (verify_weak_bialgebra, WeakHopfData.from_hopf(bad))):
        coassoc_scans.clear()
        rep = verify(host)
        assert rep.find("algebra.associativity").passed
        assert rep.find("comult_multiplicative").passed
        row = rep.find("coalgebra.coassociativity")
        assert (row.passed, row.witness) == (False, (1,))
        assert coassoc_scans == [[2], [0, 1, 2]]


def test_bare_verify_coalgebra_scans_every_index(ks3, coassoc_scans):
    # no generating set: the full scan alone, on the probe's coalgebra as on kS3
    coal = StructureCoalgebra(3, Tensor3.from_entries(
        (3, 3, 3), [(k, k, 2 * k % 3, 1) for k in range(3)]), (1, 1, 1))
    row = verify_coalgebra(coal).find("coassociativity")
    assert (row.passed, row.witness) == (False, (1,))
    assert verify_coalgebra(ks3.coalgebra).find("coassociativity").passed
    assert coassoc_scans == [[0, 1, 2], list(range(6))]
    # a host that passes scans coassociativity on S alone
    kz3 = group_algebra(dm.cyclic_table(3))
    coassoc_scans.clear()
    assert verify_hopf(kz3).ok
    assert coassoc_scans == [list(kz3.algebra.generators)]


# ---------------------------------------------------------------------------
# the braided group: module law, measuring and the Delta_R module map
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def braided(bg_s3, double_z2, double_z3):
    return {"kS3": bg_s3, "D(kZ2)": transmute(double_z2[1]), "D(kZ3)": transmute(double_z3[1])}


def _act(bg, h, x):
    out = {}
    for i, a in h.items():
        for j, b in x.items():
            for k, w in bg.adjoint_action.row(i, j):
                _add(out, k, a * b * w)
    return out


def _first_module_law_failure(bg, right=None):
    h = bg.host.host
    n = h.dim
    for i in range(n):
        for j in range(n) if right is None else right:
            for x in range(n):
                e = {x: F(1)}
                if (_act(bg, _mul(h.algebra, {i: F(1)}, {j: F(1)}), e)
                        != _act(bg, {i: F(1)}, _act(bg, {j: F(1)}, e))):
                    return (i, j, x)
    return None


def _first_measuring_failure(bg, acting=None):
    h = bg.host.host
    n = h.dim
    for i in range(n) if acting is None else acting:
        for x in range(n):
            for y in range(n):
                lhs = _act(bg, {i: F(1)}, _mul(h.algebra, {x: F(1)}, {y: F(1)}))
                rhs = {}
                for (a, b), c in _comul(h.coalgebra, {i: F(1)}).items():
                    prod = _mul(h.algebra, _act(bg, {a: F(1)}, {x: F(1)}),
                                _act(bg, {b: F(1)}, {y: F(1)}))
                    for k, w in prod.items():
                        _add(rhs, k, c * w)
                if lhs != rhs:
                    return (i, x, y)
    return None


def _first_comult_R_failure(bg, acting=None):
    h = bg.host.host
    n = h.dim
    coal_r = bg.braided_coalgebra
    for i in range(n) if acting is None else acting:
        for x in range(n):
            lhs = _comul(coal_r, _act(bg, {i: F(1)}, {x: F(1)}))
            rhs = {}
            for (a, b), c in _comul(h.coalgebra, {i: F(1)}).items():
                for (p, q), w in _comul(coal_r, {x: F(1)}).items():
                    for k1, c1 in _act(bg, {a: F(1)}, {p: F(1)}).items():
                        for k2, c2 in _act(bg, {b: F(1)}, {q: F(1)}).items():
                            _add(rhs, (k1, k2), c * w * c1 * c2)
            if lhs != rhs:
                return (i, x)
    return None


def _witness(rep, name):
    return rep.find(name).witness


def _full_scan_braided_report(bg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StructureAlgebra, "generators", property(lambda a: tuple(range(a.dim))))
        return verify_braided_group(bg).to_dict()


def _assert_full_scan_witnesses(bg):
    """The braided report equals the full-scan reference, and its three reduced
    checks carry the brute-force first failures."""
    rep = verify_braided_group(bg)
    assert rep.to_dict() == _full_scan_braided_report(bg)
    assert _witness(rep, "adjoint_module_law") == _first_module_law_failure(bg)
    assert _witness(rep, "adjoint_measuring") == _first_measuring_failure(bg)
    assert _witness(rep, "comult_R_module_map") == _first_comult_R_failure(bg)
    return rep


def _perturbed_bg(bg, which, i, j, k, delta):
    q = bg.host
    if which == "ad":
        return BraidedGroupData(q, _perturbed_t3(bg.adjoint_action, i, j, k, delta),
                                bg.comult_R, bg.antipode_R)
    if which == "comult_R":
        return BraidedGroupData(q, bg.adjoint_action,
                                _perturbed_t3(bg.comult_R, i, j, k, delta), bg.antipode_R)
    if which == "antipode_R":
        anti = [list(row) for row in bg.antipode_R.matrix]
        anti[i][j] += delta
        return BraidedGroupData(q, bg.adjoint_action, bg.comult_R, LinearMap.from_matrix(anti))
    bad = _perturbed(q.host, which, i, j, k, delta)
    return BraidedGroupData(QTStructure(bad, q.R, q.Rinv), bg.adjoint_action, bg.comult_R,
                            bg.antipode_R)


def test_unperturbed_braided_groups_pass(braided):
    for name, bg in braided.items():
        rep = _assert_full_scan_witnesses(bg)
        assert rep.ok, name
        assert rep.to_dict() == bg.report.to_dict(), name


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_braided_reduced_scans_match_full_scans(braided, data):
    name = data.draw(st.sampled_from(sorted(braided)))
    which = data.draw(st.sampled_from(("ad", "comult_R", "antipode_R", "mult", "comult")))
    bg = braided[name]
    index = st.integers(0, bg.host.host.dim - 1)
    i, j, k = data.draw(index), data.draw(index), data.draw(index)
    _assert_full_scan_witnesses(
        _perturbed_bg(bg, which, i, j, k, data.draw(st.sampled_from(DELTAS))))


def test_every_ad_constant_of_ks3(braided):
    bg = braided["kS3"]
    failed = 0
    for i in range(6):
        for j in range(6):
            for k in range(6):
                bad = _perturbed_bg(bg, "ad", i, j, k, F(1))
                rep = verify_braided_group(bad).to_dict()
                assert rep == _full_scan_braided_report(bad), (i, j, k)
                failed += not rep["ok"]
    assert failed == 6 ** 3


def _scaled_action(bg, g, c):
    """bg with the basis element g acting by c times the identity."""
    n = bg.host.host.dim
    cells = {(a, x): dict(bg.adjoint_action.row(a, x)) for a in range(n) for x in range(n)}
    for x in range(n):
        cells[(g, x)] = {x: F(c)}
    return BraidedGroupData(bg.host, Tensor3.from_row_dicts((n, n, n), cells),
                            bg.comult_R, bg.antipode_R)


def test_braided_faults_seen_only_through_the_last_generator(q_z2):
    # kZ2, S = (0, 1): with g = e_1 acting by -1 the action is a module but not
    # measuring, and with g acting by 2 not a module; each failure is seen only
    # through g, so a scan over S without its last element passes it
    bg = transmute(q_z2)
    gens = (0, 1)
    assert bg.host.host.algebra.generators == gens
    minus = _scaled_action(bg, 1, -1)
    assert _first_module_law_failure(minus) is None
    assert _first_measuring_failure(minus, gens[:-1]) is None
    assert _first_comult_R_failure(minus, gens[:-1]) is None
    rep = _assert_full_scan_witnesses(minus)
    assert _witness(rep, "adjoint_measuring") == (1, 0, 0)
    assert _witness(rep, "comult_R_module_map") == (1, 0)
    two = _scaled_action(bg, 1, 2)
    assert _first_module_law_failure(two, gens[:-1]) is None
    assert _witness(_assert_full_scan_witnesses(two), "adjoint_module_law") == (1, 1, 0)


def test_host_gate_falls_back_to_full_scans(braided):
    # kS3, S = (0, 1, 2).  The mult fault breaks associativity and the module
    # law only at second factors outside S; the comult fault breaks Delta
    # multiplicativity and the measuring law only at acting elements outside S.
    # The reductions, which assume both, would pass them.
    bg = braided["kS3"]
    gens = (0, 1, 2)
    bad = _perturbed_bg(bg, "mult", 0, 3, 0, F(1))
    assert bad.host.host.algebra.generators == gens
    assert not verify_algebra(bad.host.host.algebra).find("associativity").passed
    assert _first_module_law_failure(bad, gens) is None
    assert _witness(_assert_full_scan_witnesses(bad), "adjoint_module_law") is not None
    bad = _perturbed_bg(bg, "comult", 3, 0, 0, F(1))
    assert verify_hopf(bad.host.host).find("algebra.associativity").passed
    assert not verify_hopf(bad.host.host).find("comult_multiplicative").passed
    assert _first_module_law_failure(bad) is None
    assert _first_measuring_failure(bad, gens) is None
    assert _witness(_assert_full_scan_witnesses(bad), "adjoint_measuring") is not None


def test_measuring_is_reduced_only_after_the_module_law(braided):
    # kS3: this ad fault breaks the module law, and the measuring law only at
    # an acting element outside S
    bad = _perturbed_bg(braided["kS3"], "ad", 3, 0, 0, F(1))
    assert _first_module_law_failure(bad) is not None
    assert _first_measuring_failure(bad, (0, 1, 2)) is None
    assert _witness(_assert_full_scan_witnesses(bad), "adjoint_measuring") is not None


# ---------------------------------------------------------------------------
# the order of S: codec-ordered doubles and adversarial candidate orders
# ---------------------------------------------------------------------------

def test_cyclic_doubles_are_generated_by_their_arrows():
    # D(kZn) is spanned by the words in the n arrows p_a >< g, g a generator
    for n in range(2, 9):
        alg = drinfeld_double(group_algebra(dm.cyclic_table(n)))[0].algebra
        assert alg.generators == tuple(a * n + 1 for a in range(n)), n
        assert span_of(_closure(alg, alg.generators)) == span_of(_whole(alg)), n


def test_double_arrows_come_from_a_generating_pair_of_the_host(double_s3):
    # S_H is pruned greedily, and replaced by the first pair of indices that
    # generates H only when more than two are left: kS3 keeps its pruned
    # pair (1, 2), kS4 (3 pruned generators) takes a pair, so |S| on D(kS4)
    # falls from 56; each S is still generating_set's certified closure
    assert double_s3[0].algebra.generators == (1, 2, 7, 8, 13, 14, 19, 20, 25, 31, 32)
    ks4 = group_algebra(dm.symmetric_table(4))
    assert len(ks4.algebra.generators) == 4
    d4 = drinfeld_double(ks4)[0].algebra
    assert len(d4.generators) <= 48
    assert generating_set(d4, d4.generators) == d4.generators


def test_closure_under_adversarial_first_orders(double_z3, double_s3, b54, s3_table):
    # a bad candidate order costs size, never the certificate
    z3 = dm.cyclic_table(3)
    idempotents = {"D(kZ3)": [a * 3 + z3.identity for a in range(3)],
                   "D(kS3)": [a * 6 + s3_table.identity for a in range(6)]}
    for name, alg in (("D(kZ3)", double_z3[0].algebra), ("D(kS3)", double_s3[0].algebra),
                      ("B", b54.wha.algebra)):
        orders = [[i for i, c in enumerate(alg.unit) if c], list(reversed(range(alg.dim)))]
        if name in idempotents:    # every p_a >< 1 first
            orders.append(idempotents[name])
        for first in orders:
            gens = generating_set(alg, first)
            assert list(gens) == sorted(set(gens)), (name, first)
            assert span_of(_closure(alg, gens)) == span_of(_whole(alg)), (name, first)


# ---------------------------------------------------------------------------
# R-matrices: the intertwining law on S and the right inverse
# ---------------------------------------------------------------------------

def _mul2(alg, u, v):
    out = {}
    for (a, b), c in u.items():
        for (x, y), d in v.items():
            for p, cp in alg.mult.row(a, x):
                for q, cq in alg.mult.row(b, y):
                    _add(out, (p, q), c * d * cp * cq)
    return out


def _first_intertwining_failure(alg, coal, r):
    for i in range(alg.dim):
        delta = _comul(coal, {i: F(1)})
        cop = {(b, a): c for (a, b), c in delta.items()}
        if _mul2(alg, r, delta) != _mul2(alg, cop, r):
            return (i,)
    return None


def _r_twins(R, deltas=DELTAS):
    """R with each of its entries moved by each delta."""
    for key, _ in sorted(R.items()):
        for delta in deltas:
            bad = dict(R.items())
            _add(bad, key, delta)
            yield TensorElem.from_entries(R.dims, list(bad.items()))


def _full_scan_qt_report(verify, q):
    """The report with every index as a generator: the intertwining scan is
    then the full scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StructureAlgebra, "generators", property(lambda a: tuple(range(a.dim))))
        return verify(q).to_dict()


def test_qt_twins_of_double_s3(double_s3):
    # every R entry of D(kS3) moved by every delta: the intertwining witness is
    # the full scan's first failing index, and R_invertible_right is R Rbar = 1 (x) 1
    dd, q = double_s3
    alg = dd.algebra
    one2 = {(a, b): ca * cb for a, ca in alg.unit_sparse.items()
            for b, cb in alg.unit_sparse.items()}
    hits = 0
    for bad in _r_twins(q.R):
        twin = QTStructure(dd, bad, q.Rinv)
        rep = verify_qt(twin)
        first = _first_intertwining_failure(alg, dd.coalgebra, bad.terms)
        assert rep.find("intertwines_comult").witness == first
        right = _mul2(alg, bad.terms, q.Rinv.terms) == one2
        assert rep.find("R_invertible_right").passed == right
        hits += first is not None and first[0] not in alg.generators
    assert hits > 0
    rep = verify_qt(q)
    assert rep.ok and rep.find("R_invertible_right").passed
    assert _mul2(alg, q.R.terms, q.Rinv.terms) == one2


def test_weak_qt_twins(b54, double_s3):
    # the same sweep over the weak R-matrix of B, and over R of D(kS3) taken as
    # a weak R-matrix, whose witnesses lie outside S; both inverse laws are formed
    dd, q = double_s3
    weak_s3 = WeakQTStructure(WeakHopfData.from_hopf(dd), q.R, q.Rinv)
    hits = 0
    for wq, deltas in ((b54.rqt, DELTAS), (weak_s3, DELTAS[:1])):
        w = wq.host
        alg = w.algebra
        d1cop = {(b, a): c for (a, b), c in w.delta_one.items()}
        for bad in _r_twins(wq.Rw, deltas):
            twin = WeakQTStructure(w, bad, wq.Rw_bar)
            rep = verify_weak_qt(twin)
            first = _first_intertwining_failure(alg, w.coalgebra, bad.terms)
            assert rep.find("intertwines_comult").witness == first
            assert rep.find("r_rbar_is_delta_cop_one").passed == (
                _mul2(alg, bad.terms, wq.Rw_bar.terms) == d1cop)
            hits += first is not None and first[0] not in alg.generators
        assert verify_weak_qt(wq).ok
    assert hits > 0
    twin = WeakQTStructure(b54.wha, next(_r_twins(b54.rqt.Rw, DELTAS)), b54.rqt.Rw_bar)
    assert verify_weak_qt(twin).to_dict() == _full_scan_qt_report(verify_weak_qt, twin)


def test_qt_host_gate_falls_back_to_full_scans(hosts, double_z3):
    # a host whose associativity or Delta multiplicativity fails gives no
    # reduction: intertwining is scanned in full and R Rbar is formed
    q = double_z3[1]
    h = hosts["D(kZ3)"]
    for which, i, j, k in (("mult", 7, 7, 0), ("comult", 7, 0, 6)):
        bad = _perturbed(h, which, i, j, k, F(1))
        twin = QTStructure(bad, q.R, q.Rinv)
        rep = verify_qt(twin)
        assert not verify_hopf(bad).ok
        assert rep.find("intertwines_comult").witness == _first_intertwining_failure(
            bad.algebra, bad.coalgebra, q.R.terms)
        assert rep.to_dict() == _full_scan_qt_report(verify_qt, twin)
