"""Every reduction of `verify_hopf`, `verify_qt`, `verify_module_algebra` and
`verify_braided_group`, the antipode, unit and counit law, coassociativity
and Delta-multiplicativity rows of `verify_weak_hopf`, and the twisting-map
certificate of a twisted product's associativity, against a reference that
checks the axioms in full, on the single-cell twins of small hosts.

A twin moves one number by +1: a cell of μ or Δ (empty cells included), an
entry of the unit, the counit or the antipode, an entry of R, a cell of a
module algebra's action or product, a cell of a braided group's ad, Δ_R
or S_R, or a coefficient of a twisting map τ.  The references below scan every index, pair and triple, with plain
dict arithmetic and nothing from hopfsmash beyond reading the data types;
each row of the verifier's report must give the reference's verdict and
witness.
"""

import itertools
import random

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import LinearMap, Tensor3, TensorElem
from hopfsmash.hopfcore import (
    HopfData,
    StructureAlgebra,
    StructureCoalgebra,
    heisenberg_double,
    module_law_failures,
    twisted_product,
    twisting_map_failures,
    verify_algebra,
    verify_hopf,
)
from hopfsmash.modalg import ModuleAlgebraData, separability, verify_module_algebra
from hopfsmash.qtriang import (
    BraidedGroupData,
    QTStructure,
    transmute,
    verify_braided_group,
    trivial_qt,
    verify_qt,
)
from hopfsmash.smashcons import smash_algebra, smash_weak_structure
from hopfsmash.weakhopf import WeakHopfData, verify_weak_hopf

# ---------------------------------------------------------------------------
# dense references, from the axioms
# ---------------------------------------------------------------------------


def _add(acc, key, c):
    w = acc.get(key, 0) + c
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _cells(t):
    """t[i][j] as nested lists of {k: coefficient} dicts."""
    d0, d1, _ = t.dims
    return [[dict(t.row(i, j)) for j in range(d1)] for i in range(d0)]


def _bilinear(cells, x, y):
    """sum x_i y_j cells[i][j] for sparse x, y: a product or an action."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, w in cells[i][j].items():
                _add(out, k, a * b * w)
    return out


class _Host:
    """mul, comul, counit and antipode of a HopfData as dict arithmetic."""

    def __init__(self, h):
        n = self.n = h.dim
        self.mu = _cells(h.mult)
        self.delta = [{(a, b): c for a in range(n) for b, c in h.comult.row(i, a)}
                      for i in range(n)]
        self.eps = list(h.counit)
        self.one = {i: c for i, c in enumerate(h.unit) if c}
        self.s_cols = [dict(col) for col in h.antipode.cols]

    def mul(self, x, y):
        return _bilinear(self.mu, x, y)

    def comul(self, x):
        out = {}
        for i, a in x.items():
            for key, w in self.delta[i].items():
                _add(out, key, a * w)
        return out

    def counit(self, x):
        return sum(a * self.eps[i] for i, a in x.items())

    def antipode(self, x):
        out = {}
        for i, a in x.items():
            for k, w in self.s_cols[i].items():
                _add(out, k, a * w)
        return out

    def tmul(self, x, y):
        """Product in the tensor power A (x) ... (x) A of tuple-keyed elements."""
        out = {}
        for ka, a in x.items():
            for kb, b in y.items():
                terms = {(): a * b}
                for i, j in zip(ka, kb):
                    terms = {key + (k,): c * w for key, c in terms.items()
                             for k, w in self.mu[i][j].items()}
                for key, c in terms.items():
                    _add(out, key, c)
        return out


def _first(cases):
    return next(iter(cases), None)


def _coalgebra_rows(prefix, delta, eps):
    """The counit-law and coassociativity rows of the coproduct rows delta,
    {(a, b): coefficient} per index, with counit eps."""
    def counit_ok(w):
        left, right = {}, {}
        for (a, b), c in delta[w].items():
            _add(left, b, c * eps[a])
            _add(right, a, c * eps[b])
        return left == right == {w: 1}

    def coassociative(w):
        lhs, rhs = {}, {}
        for (a, b), c in delta[w].items():
            for (p, q), cc in delta[a].items():
                _add(lhs, (p, q, b), c * cc)
            for (p, q), cc in delta[b].items():
                _add(rhs, (a, p, q), c * cc)
        return lhs == rhs

    n = len(delta)
    return [(prefix + "counit_law", _first((w,) for w in range(n) if not counit_ok(w))),
            (prefix + "coassociativity", _first((w,) for w in range(n) if not coassociative(w)))]


def _unit_law_first(x):
    """The first (i,) with 1 e_i != e_i or e_i 1 != e_i."""
    e = [{i: 1} for i in range(x.n)]
    return _first((i,) for i in range(x.n)
                  if x.mul(x.one, e[i]) != e[i] or x.mul(e[i], x.one) != e[i])


def _comult_multiplicative_first(x):
    """The first (i, j) with Delta(e_i e_j) != Delta(e_i) Delta(e_j)."""
    e = [{i: 1} for i in range(x.n)]
    return _first((i, j) for i, j in itertools.product(range(x.n), repeat=2)
                  if x.comul(x.mul(e[i], e[j])) != x.tmul(x.delta[i], x.delta[j]))


def hopf_reference(h):
    """[(row, value)] in verify_hopf's order: a scan's value is its first
    failing case in full-scan order (None when none fails), a single test's
    value is its verdict."""
    x = _Host(h)
    n = x.n
    e = [{i: 1} for i in range(n)]
    one = x.one
    rows = [("algebra.unit_law", _unit_law_first(x))]
    rows.append(("algebra.associativity", _first(
        (i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
        if x.mul(x.mul(e[i], e[j]), e[k]) != x.mul(e[i], x.mul(e[j], e[k])))))

    rows.extend(_coalgebra_rows("coalgebra.", x.delta, x.eps))
    one2 = {(a, b): ca * cb for a, ca in one.items() for b, cb in one.items()}
    rows.append(("comult_unital", x.comul(one) == one2))
    rows.append(("comult_multiplicative", _comult_multiplicative_first(x)))
    rows.append(("counit_multiplicative", _first(
        (i, j) for i, j in itertools.product(range(n), repeat=2)
        if x.counit(x.mul(e[i], e[j])) != x.eps[i] * x.eps[j])))
    rows.append(("counit_unital", x.counit(one) == 1))

    def convolution(i, left):
        out = {}
        for (a, b), c in x.delta[i].items():
            prod = (x.mul(x.antipode(e[a]), e[b]) if left
                    else x.mul(e[a], x.antipode(e[b])))
            for k, w in prod.items():
                _add(out, k, c * w)
        return out

    def eps_one(i):
        return {k: x.eps[i] * c for k, c in one.items() if x.eps[i] * c}

    rows.append(("antipode_left", _first(
        (i,) for i in range(n) if convolution(i, True) != eps_one(i))))
    rows.append(("antipode_right", _first(
        (i,) for i in range(n) if convolution(i, False) != eps_one(i))))
    rows.append(("antipode_involutive",
                 all(x.antipode(x.antipode(e[i])) == e[i] for i in range(n))))
    return rows


def qt_reference(q):
    """[(row, value)] in verify_qt's order, as in hopf_reference, from the
    axioms of (H, R, Rbar)."""
    x = _Host(q.host)
    n = x.n
    r, rbar = dict(q.R.terms), dict(q.Rinv.terms)
    one2 = {(a, b): ca * cb for a, ca in x.one.items() for b, cb in x.one.items()}
    rows = [("R_invertible_left", x.tmul(rbar, r) == one2),
            ("R_invertible_right", x.tmul(r, rbar) == one2)]
    rows.append(("intertwines_comult", _first(
        (i,) for i in range(n)
        if x.tmul(r, x.delta[i]) != x.tmul({(b, a): c for (a, b), c in x.delta[i].items()}, r))))
    r13, r23, r12, d_id, id_d = {}, {}, {}, {}, {}
    for (a, b), c in r.items():
        for u, cu in x.one.items():
            _add(r13, (a, u, b), c * cu)
            _add(r23, (u, a, b), c * cu)
            _add(r12, (a, b, u), c * cu)
        for (p, s), w in x.delta[a].items():
            _add(d_id, (p, s, b), c * w)
        for (p, s), w in x.delta[b].items():
            _add(id_d, (a, p, s), c * w)
    rows.append(("delta_tensor_id", d_id == x.tmul(r13, r23)))
    rows.append(("id_tensor_delta", id_d == x.tmul(r13, r12)))
    return rows


def _module_law_first(x, act, nv):
    """The first (i, j, v) with (e_i e_j) . e_v != e_i . (e_j . e_v) for the
    action cells act of the host x on a space of dimension nv."""
    e = [{i: 1} for i in range(max(x.n, nv))]
    return _first((i, j, v) for i, j, v in itertools.product(range(x.n), range(x.n), range(nv))
                  if _bilinear(act, x.mul(e[i], e[j]), e[v])
                  != _bilinear(act, e[i], _bilinear(act, e[j], e[v])))


def _measuring_first(x, act, mu, nv):
    """The first (i, u, v) with e_i . (e_u e_v) != (h_(1) . e_u)(h_(2) . e_v)."""
    e = [{i: 1} for i in range(max(x.n, nv))]

    def measured(i, u, v):
        rhs = {}
        for (a, b), c in x.delta[i].items():
            for k, w in _bilinear(mu, _bilinear(act, e[a], e[u]),
                                  _bilinear(act, e[b], e[v])).items():
                _add(rhs, k, c * w)
        return _bilinear(act, e[i], _bilinear(mu, e[u], e[v])) == rhs

    return _first((i, u, v) for i, u, v in itertools.product(range(x.n), range(nv), range(nv))
                  if not measured(i, u, v))


def module_algebra_reference(m):
    """[(row, value)] in verify_module_algebra's order, from the axioms of an
    H-module algebra A."""
    x = _Host(m.host)
    na = m.A.dim
    act, mu = _cells(m.action), _cells(m.A.mult)
    e = [{i: 1} for i in range(max(x.n, na))]
    one_a = {k: c for k, c in enumerate(m.A.unit) if c}
    return [("action_unital", _first((v,) for v in range(na)
                                     if _bilinear(act, x.one, e[v]) != e[v])),
            ("action_module_law", _module_law_first(x, act, na)),
            ("measuring", _measuring_first(x, act, mu, na)),
            ("unit_absorbed", _first(
                (i,) for i in range(x.n)
                if _bilinear(act, e[i], one_a)
                != {k: x.eps[i] * c for k, c in one_a.items() if x.eps[i] * c}))]


def braided_reference(bg):
    """[(row, value)] in verify_braided_group's order, from the axioms of
    (ad, Delta_R, S_R) over the host H."""
    x = _Host(bg.host.host)
    n = x.n
    ad = _cells(bg.adjoint_action)
    delta_r = [{(a, b): c for a in range(n) for b, c in bg.comult_R.row(i, a)}
               for i in range(n)]
    s_r = [dict(col) for col in bg.antipode_R.cols]
    e = [{i: 1} for i in range(n)]

    def module_map(i, v):
        lhs, rhs = {}, {}
        for k, ck in _bilinear(ad, e[i], e[v]).items():
            for key, w in delta_r[k].items():
                _add(lhs, key, ck * w)
        for (a, b), c in x.delta[i].items():
            for (p, q), w in delta_r[v].items():
                for k1, c1 in _bilinear(ad, e[a], e[p]).items():
                    for k2, c2 in _bilinear(ad, e[b], e[q]).items():
                        _add(rhs, (k1, k2), c * w * c1 * c2)
        return lhs == rhs

    def antipode_ok(i):
        acc = {}
        for (a, b), c in delta_r[i].items():
            for k, w in x.mul(s_r[a], e[b]).items():
                _add(acc, k, c * w)
        return acc == {k: x.eps[i] * c for k, c in x.one.items() if x.eps[i] * c}

    return [*_coalgebra_rows("braided.", delta_r, x.eps),
            ("adjoint_unital", _first((i,) for i in range(n)
                                      if _bilinear(ad, x.one, e[i]) != e[i])),
            ("adjoint_module_law", _module_law_first(x, ad, n)),
            ("adjoint_measuring", _measuring_first(x, ad, x.mu, n)),
            ("comult_R_module_map", _first(
                (i, v) for i, v in itertools.product(range(n), repeat=2) if not module_map(i, v))),
            ("braided_antipode_identity", _first((i,) for i in range(n) if not antipode_ok(i)))]


def weak_antipode_reference(w):
    """[(row, value)] of verify_weak_hopf's three antipode rows, from the
    axioms S(h_(1)) h_(2) = eps_s(h), h_(1) S(h_(2)) = eps_t(h) and
    S(h_(1)) h_(2) S(h_(3)) = S(h), with eps_s(h) = 1_(1) eps(h 1_(2)),
    eps_t(h) = eps(1_(1) h) 1_(2) and (Delta (x) id) Delta spelled out."""
    x = _Host(w)
    n = x.n
    e = [{i: 1} for i in range(n)]
    delta_one = x.comul(x.one)

    def eps_s(i):
        out = {}
        for (a, b), c in delta_one.items():
            _add(out, a, c * x.counit(x.mul(e[i], e[b])))
        return out

    def eps_t(i):
        out = {}
        for (a, b), c in delta_one.items():
            _add(out, b, c * x.counit(x.mul(e[a], e[i])))
        return out

    def convolution(i, left):
        out = {}
        for (a, b), c in x.delta[i].items():
            prod = (x.mul(x.antipode(e[a]), e[b]) if left
                    else x.mul(e[a], x.antipode(e[b])))
            for k, v in prod.items():
                _add(out, k, c * v)
        return out

    def triple(i):
        three = {}    # (Delta (x) id) Delta(e_i)
        for (a, b), c in x.delta[i].items():
            for (p, q), cc in x.delta[a].items():
                _add(three, (p, q, b), c * cc)
        out = {}
        for (p, q, b), c in three.items():
            for k, v in x.mul(x.mul(x.antipode(e[p]), e[q]), x.antipode(e[b])).items():
                _add(out, k, c * v)
        return out

    return [("antipode_source", _first((i,) for i in range(n) if convolution(i, True) != eps_s(i))),
            ("antipode_target", _first((i,) for i in range(n) if convolution(i, False) != eps_t(i))),
            ("antipode_triple", _first((i,) for i in range(n) if triple(i) != x.s_cols[i]))]


def weak_bialgebra_reference(w):
    """[(row, value)] of verify_weak_hopf's unit-law, counit-law,
    coassociativity and Delta-multiplicativity rows, from the axioms."""
    x = _Host(w)
    return [("wba.algebra.unit_law", _unit_law_first(x)),
            *_coalgebra_rows("wba.coalgebra.", x.delta, x.eps),
            ("wba.comult_multiplicative", _comult_multiplicative_first(x))]


def _mismatches(report, reference):
    """The rows whose verdict or witness differs from the reference's."""
    got = [(c.name, c.passed, c.witness) for c in report.checks]
    want = [(name, v if isinstance(v, bool) else v is None, None if isinstance(v, bool) else v)
            for name, v in reference]
    assert [g[0] for g in got] == [w[0] for w in want]
    return [(g, w) for g, w in zip(got, want) if g != w]


# ---------------------------------------------------------------------------
# single-cell twins
# ---------------------------------------------------------------------------


def _moved_tensor(t, i, j, k):
    cells = t.dense()
    cells[i][j][k] += 1
    return Tensor3.from_dense(cells)


def hopf_twins(h):
    """(label, twin) for every +1 move of one cell of mu or Delta, one unit,
    counit or antipode entry."""
    n = h.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        alg = StructureAlgebra(n, _moved_tensor(h.mult, i, j, k), h.unit)
        yield ("mult", i, j, k), HopfData(alg, h.coalgebra, h.antipode)
    for i, j, k in itertools.product(range(n), repeat=3):
        coal = StructureCoalgebra(n, _moved_tensor(h.comult, i, j, k), h.counit)
        yield ("comult", i, j, k), HopfData(h.algebra, coal, h.antipode)
    for i in range(n):
        unit = tuple(c + (m == i) for m, c in enumerate(h.unit))
        yield ("unit", i), HopfData(StructureAlgebra(n, h.mult, unit), h.coalgebra, h.antipode)
    for i in range(n):
        counit = tuple(c + (m == i) for m, c in enumerate(h.counit))
        yield ("counit", i), HopfData(h.algebra, StructureCoalgebra(n, h.comult, counit),
                                      h.antipode)
    for r, c in itertools.product(range(n), repeat=2):
        cols = [dict(col) for col in h.antipode.cols]
        cols[c][r] = cols[c].get(r, 0) + 1
        cols[c] = {k: v for k, v in cols[c].items() if v}
        yield ("antipode", r, c), HopfData(h.algebra, h.coalgebra, LinearMap(n, n, cols))


@pytest.fixture(scope="module")
def twin_hosts(kz2, ks3, double_z2):
    return {"kZ2": kz2, "kS3": ks3, "D(kZ2)": double_z2[0]}


@pytest.mark.parametrize("host, count", [("kZ2", 24), ("kS3", 480), ("D(kZ2)", 152)])
def test_verify_hopf_twins_match_the_dense_reference(twin_hosts, host, count):
    h = twin_hosts[host]
    assert _mismatches(verify_hopf(h), hopf_reference(h)) == []
    seen = 0
    for label, twin in hopf_twins(h):
        seen += 1
        rep = verify_hopf(twin)
        assert _mismatches(rep, hopf_reference(twin)) == [], label
        assert not rep.ok, label    # every single-cell move breaks a law
    assert seen == count


def test_verify_qt_twins_match_the_dense_reference(double_z2):
    dd, q = double_z2
    n = dd.dim
    assert _mismatches(verify_qt(q), qt_reference(q)) == []
    for a, b in itertools.product(range(n), repeat=2):
        terms = dict(q.R.terms)
        terms[(a, b)] = terms.get((a, b), 0) + 1
        twin = QTStructure(dd, TensorElem.from_entries((n, n), terms.items()), q.Rinv)
        rep = verify_qt(twin)
        assert _mismatches(rep, qt_reference(twin)) == [], (a, b)
        assert not rep.ok, (a, b)


def test_the_references_see_a_planted_fault(ks3):
    # a reference that passed everything would make the sweeps above vacuous
    twin = next(t for label, t in hopf_twins(ks3) if label == ("comult", 1, 0, 0))
    rows = dict(hopf_reference(twin))
    assert rows["comult_multiplicative"] is not None
    assert rows["coalgebra.counit_law"] == (1,)
    assert dict(hopf_reference(dm.k_z2()))["algebra.associativity"] is None


def _cell_twins(t):
    """(i, j, k, twin) for every +1 move of one cell of t, empty cells included."""
    for i, j, k in itertools.product(*map(range, t.dims)):
        yield i, j, k, _moved_tensor(t, i, j, k)


def module_algebra_twins(m):
    """(label, twin) for every +1 move of one cell of the action or of A's product."""
    for *cell, action in _cell_twins(m.action):
        yield ("action", *cell), ModuleAlgebraData(m.host, m.A, action)
    for *cell, mult in _cell_twins(m.A.mult):
        algebra = StructureAlgebra(m.A.dim, mult, m.A.unit)
        yield ("A.mult", *cell), ModuleAlgebraData(m.host, algebra, m.action)


def braided_twins(bg):
    """(label, twin) for every +1 move of one cell of ad or Delta_R, or one
    entry of S_R."""
    n = bg.host.host.dim
    for *cell, ad in _cell_twins(bg.adjoint_action):
        yield ("ad", *cell), BraidedGroupData(bg.host, ad, bg.comult_R, bg.antipode_R)
    for *cell, comult_r in _cell_twins(bg.comult_R):
        yield ("comult_R", *cell), BraidedGroupData(bg.host, bg.adjoint_action, comult_r,
                                                    bg.antipode_R)
    for r, c in itertools.product(range(n), repeat=2):
        cols = [dict(col) for col in bg.antipode_R.cols]
        cols[c][r] = cols[c].get(r, 0) + 1
        cols[c] = {k: v for k, v in cols[c].items() if v}
        yield ("antipode_R", r, c), BraidedGroupData(bg.host, bg.adjoint_action, bg.comult_R,
                                                     LinearMap(n, n, cols))


@pytest.mark.parametrize("name, count", [("k^3 over kS3", 81), ("k^2 over kZ2", 16)])
def test_verify_module_algebra_twins_match_the_dense_reference(m3, name, count):
    m = m3 if name == "k^3 over kS3" else dm.k2_module_algebra_over_z2()
    assert _mismatches(verify_module_algebra(m), module_algebra_reference(m)) == []
    seen = failing = 0
    for label, twin in module_algebra_twins(m):
        seen += 1
        rep = verify_module_algebra(twin)
        assert _mismatches(rep, module_algebra_reference(twin)) == [], label
        failing += not rep.ok
    assert seen == failing == count    # every single-cell move breaks a law


def _moved_tau(tau, moves):
    """tau with the coefficient of e_x3 (x) e_y3 in tau(e_y (x) e_x) moved by d
    for each ((y, x), (x3, y3), d) of moves; a term that cancels is dropped."""
    moved = [list(row) for row in tau]
    for (y, x), (x3, y3), d in moves:
        terms = {(p, q): c for p, q, c in moved[y][x]}
        terms[x3, y3] = terms.get((x3, y3), 0) + d
        moved[y][x] = [(p, q, c) for (p, q), c in terms.items() if c]
    return moved


def twisting_twins(carrier):
    """(label, twin) for every +1 move of one coefficient of the twisting
    map tau of a twisted_product carrier: the term e_x3 (x) e_y3 of
    tau(e_y (x) e_x), absent terms included; each twin is built by
    twisted_product from the moved tau, so it keeps its factors and tau."""
    a, b, tau = carrier.twisting
    for y, x, x3, y3 in itertools.product(range(b.dim), range(a.dim), range(a.dim), range(b.dim)):
        yield (y, x, x3, y3), twisted_product(a, b, _moved_tau(tau, [((y, x), (x3, y3), 1)]))


def balanced_twisting_twins(carrier, sample=None, seed=0):
    """(label, twin) for a +1 and a -1 move of one term e_x3 (x) e_y3 of tau
    at two places (y, x), (y', x') chosen so that both unit conditions still
    hold: x = x' outside the support of 1_A with 1_B equal at y and y', or
    y = y' outside the support of 1_B with 1_A equal at x and x'.  A +1 twin
    of these carriers always breaks a unit condition, so only these reach the
    product equations alone.  All of them, or a seeded sample of `sample`."""
    a, b, tau = carrier.twisting
    one_a, one_b = a.unit_sparse, b.unit_sparse
    places = [(p, q) for p, q in itertools.combinations(
                  itertools.product(range(b.dim), range(a.dim)), 2)
              if (p[1] == q[1] and p[1] not in one_a and one_b.get(p[0]) == one_b.get(q[0]))
              or (p[0] == q[0] and p[0] not in one_b and one_a.get(p[1]) == one_a.get(q[1]))]
    cases = [(p, q, term) for p, q in places
             for term in itertools.product(range(a.dim), range(b.dim))]
    if sample is not None:
        cases = random.Random(seed).sample(cases, sample)
    for p, q, term in cases:
        yield (p, q, term), twisted_product(a, b, _moved_tau(tau, [(p, term, 1), (q, term, -1)]))


def _twisting_families(twin, label):
    """The families the twisting scan of a twin yields, after checking that
    the scan fails exactly when Light's test on every triple does and that
    the associativity row keeps the full scan's verdict and first witness."""
    full = next(module_law_failures(twin, twin.mult), None)
    families = {case[0] for case in twisting_map_failures(*twin.twisting)}
    assert bool(families) == (full is not None), label
    assert twin.associative_by_twisting == (full is None), label
    row = verify_algebra(twin).find("associativity")
    assert (row.passed, row.witness) == (full is None, full), label
    return families


@pytest.fixture(scope="module")
def twisted_worlds(double_z2, double_s3, smash18, ks3):
    return {"D(kZ2)": double_z2[0].algebra, "D(kS3)": double_s3[0].algebra,
            "k^3 # kS3": smash18.carrier, "Heis(kS3)": heisenberg_double(ks3)}


@pytest.mark.parametrize("name, count", [("D(kZ2)", 16), ("D(kS3)", 1296), ("k^3 # kS3", 324)])
def test_twisting_map_twins_agree_with_the_full_light_scan(twisted_worlds, name, count):
    # the twisting-map scan (on generators) fails exactly when Light's test
    # on every triple does, and the associativity row, certified by tau when
    # the scan is empty, keeps the full scan's verdict and first witness
    carrier = twisted_worlds[name]
    assert carrier.associative_by_twisting
    assert carrier.report.find("associativity").passed
    seen = failing = 0
    for label, twin in twisting_twins(carrier):
        seen += 1
        failing += bool(_twisting_families(twin, label))
    assert seen == failing == count    # every +1 move of tau breaks associativity


def test_balanced_twisting_twins_reach_each_product_equation_alone(twisted_worlds):
    # the same agreement where the unit conditions hold, so each product
    # equation, scanned on generators, is on some twin the only one to fail
    alone = set()
    for name, sample in (("D(kZ2)", None), ("D(kS3)", 300), ("k^3 # kS3", None),
                         ("Heis(kS3)", 300)):
        for label, twin in balanced_twisting_twins(twisted_worlds[name], sample):
            families = _twisting_families(twin, (name, label))
            assert families <= {"product_a", "product_b"}, (name, label)
            if len(families) == 1:
                alone |= families
    assert alone == {"product_a", "product_b"}


@pytest.mark.parametrize("name, count", [("kS3", 468), ("D(kZ2)", 144)])
def test_verify_braided_group_twins_match_the_dense_reference(bg_s3, double_z2, name, count):
    bg = bg_s3 if name == "kS3" else transmute(double_z2[1])
    assert _mismatches(verify_braided_group(bg), braided_reference(bg)) == []
    seen = failing = 0
    for label, twin in braided_twins(bg):
        seen += 1
        rep = verify_braided_group(twin)
        assert _mismatches(rep, braided_reference(twin)) == [], label
        failing += not rep.ok
    assert seen == failing == count    # every single-cell move breaks an identity


def weak_antipode_twins(w, empty_cells=None, seed=0):
    """(label, twin) for every +1 move of one entry of S and of one cell of
    Delta: every nonzero cell, and every empty one, or a seeded sample of
    `empty_cells` of them."""
    n = w.dim
    for r, c in itertools.product(range(n), repeat=2):
        cols = [dict(col) for col in w.antipode.cols]
        cols[c][r] = cols[c].get(r, 0) + 1
        cols[c] = {k: v for k, v in cols[c].items() if v}
        yield ("antipode", r, c), WeakHopfData(w.algebra, w.coalgebra, LinearMap(n, n, cols))
    cells = [cell for cell in itertools.product(range(n), repeat=3) if w.comult.entry(*cell)]
    empty = [cell for cell in itertools.product(range(n), repeat=3)
             if not w.comult.entry(*cell)]
    if empty_cells is not None:
        empty = random.Random(seed).sample(empty, empty_cells)
    for cell in cells + empty:
        coal = StructureCoalgebra(n, _moved_tensor(w.comult, *cell), w.counit)
        yield ("comult", *cell), WeakHopfData(w.algebra, coal, w.antipode)


@pytest.fixture(scope="module")
def weak_smash_worlds(kz2, sws18):
    m = dm.k2_module_algebra_over_z2(kz2)
    sws = smash_weak_structure(smash_algebra(m), trivial_qt(kz2), separability(m))
    return {"k^2 # kZ2": (sws.wha, None), "k^3 # kS3": (sws18.wha, 100)}


@pytest.mark.parametrize("name, count", [("k^2 # kZ2", 80), ("k^3 # kS3", 442)])
def test_verify_weak_hopf_antipode_rows_match_the_dense_reference(weak_smash_worlds, name,
                                                                  count):
    # every S twin and the Delta twins of both A # H: the antipode rows, the
    # unit and counit laws, coassociativity and Delta multiplicativity; the
    # other rows of verify_weak_hopf have no dense reference here
    w, empty_cells = weak_smash_worlds[name]

    def reference(w):
        return weak_antipode_reference(w) + weak_bialgebra_reference(w)

    def rows(rep, ref):
        return [(row, rep.find(row).passed, rep.find(row).witness) for row, _ in ref]

    def want(reference):
        return [(row, v is None, v) for row, v in reference]

    assert rows(verify_weak_hopf(w), ref := reference(w)) == want(ref)
    seen = failing = triple_failing = 0
    failed_rows = set()
    for label, twin in weak_antipode_twins(w, empty_cells):
        seen += 1
        rep = verify_weak_hopf(twin)
        assert rows(rep, ref := reference(twin)) == want(ref), label
        failing += not rep.ok
        triple_failing += not rep.find("antipode_triple").passed
        failed_rows.update(row for row, v in ref if v is not None)
    assert seen == failing == count    # every single-cell move breaks an axiom
    assert triple_failing
    assert {"wba.coalgebra.counit_law", "wba.coalgebra.coassociativity",
            "wba.comult_multiplicative"} <= failed_rows


def _counital_reference(w):
    """(eps_s, eps_t) by the loops WeakHopfData ran before it read leg_map
    and the counit form: eps_s(e_i) = sum c T[i][b] e_a and eps_t(e_i) =
    sum c T[a][i] e_b over the terms c e_a (x) e_b of Delta(1)."""
    t = w._eps_of_prod
    s_cols = tuple({} for _ in range(w.dim))
    t_cols = tuple({} for _ in range(w.dim))
    for i in range(w.dim):
        for (a, b), c in w.delta_one.items():
            if b in t[i]:
                _add(s_cols[i], a, c * t[i][b])
            if i in t[a]:
                _add(t_cols[i], b, c * t[a][i])
    return s_cols, t_cols


def _typed(cols):
    return [sorted((k, c, type(c)) for k, c in col.items()) for col in cols]


def test_counital_maps_match_the_reference_loops(weak_smash_worlds, b54):
    # eps_s and eps_t, cell for cell with scalar types, on both A # H, on B
    # and on the Delta twins of k^3 # kS3 (all nonzero cells and 100 seeded
    # empty ones), which the antipode rows read these maps on
    worlds = [weak_smash_worlds["k^2 # kZ2"][0], weak_smash_worlds["k^3 # kS3"][0], b54.wha]
    worlds += [twin for label, twin in weak_antipode_twins(worlds[1], 100, seed=7)
               if label[0] == "comult"]
    for w in worlds:
        s_cols, t_cols = _counital_reference(w)
        assert (_typed(w.eps_s.cols), _typed(w.eps_t.cols)) == (_typed(s_cols), _typed(t_cols))
    assert len(worlds) == 3 + 118
