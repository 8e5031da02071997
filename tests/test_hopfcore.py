import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmash import demos as dm
from hopfsmash import hopfcore
from hopfsmash.exactlin import (
    DimensionMismatch,
    LinearMap,
    Tensor3,
    kernel_basis,
    mat,
    sp,
    sp_add,
    vec,
    vec_dot,
)
from hopfsmash.hopfcore import (
    GroupTable,
    HopfData,
    NotSemisimple,
    StructureAlgebra,
    StructureCoalgebra,
    check_map,
    co_opposite,
    convolution_algebra,
    drinfeld_double,
    dual_coalgebra,
    dual_hopf,
    end_algebra,
    group_algebra,
    heisenberg_double,
    integrals,
    matrix_algebra,
    opposite_algebra,
    opposites,
    tensor_algebra,
    verify_algebra,
    verify_coalgebra,
    verify_hopf,
)
from hopfsmash.modalg import pointwise_algebra
from hopfsmash.report import HypothesisFailure


# a dense reference for the sparse maps: matrices are row-major tuples
def _identity(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def _mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in m)


def _mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def test_group_table_validation():
    with pytest.raises(ValueError):
        GroupTable.from_lists(["e", "a"], [[0, 1], [1, 1]]).validate()
    with pytest.raises(ValueError):
        GroupTable.from_lists(["a", "b"], [[1, 0], [1, 0]]).validate()


def test_trivial_group_algebra():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    assert h.dim == 1
    assert h.mult.dense() == [[[F(1)]]]
    assert h.antipode.matrix == ((F(1),),)
    assert verify_hopf(h).ok


def test_kz2_hopf(kz2):
    assert kz2.dim == 2
    rep = verify_hopf(kz2)
    assert rep.ok
    # antipode of kZ2 is the identity: every element is self-inverse
    assert kz2.antipode.matrix == _identity(2)


def test_ks3_mult_matches_permutation_oracle(ks3, s3_table):
    # independent oracle: compose permutations directly
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            k = idx[tuple(p[q[t]] for t in range(3))]
            assert ks3.mult.row(i, j) == ((k, F(1)),)
            assert s3_table.table[i][j] == k
    rep = verify_hopf(ks3)
    assert rep.ok
    assert rep.find("antipode_involutive").passed


def test_corrupted_mult_fails_with_witness(ks3):
    dense = ks3.mult.dense()
    dense[1][2][0] += 1
    bad = StructureAlgebra(6, Tensor3.from_dense(dense), ks3.unit)
    rep = verify_algebra(bad)
    assert not rep.ok
    assert rep.find("associativity").witness == (1, 1, 2)


@pytest.mark.parametrize("build", [drinfeld_double, heisenberg_double, dual_hopf,
                                   lambda h: opposites(h, "op")],
                         ids=["double", "heisenberg", "dual", "op"])
def test_constructors_refuse_a_broken_host_under_its_own_check(ks3, build):
    # the derived object fails too, but under its own check and indices; the
    # host's check names the perturbed cell
    dense = ks3.mult.dense()
    dense[1][2][0] += 1
    bad = HopfData(StructureAlgebra(6, Tensor3.from_dense(dense), ks3.unit),
                   ks3.coalgebra, ks3.antipode)
    with pytest.raises(HypothesisFailure) as ei:
        build(bad)
    assert ei.value.hypothesis == "hopf:algebra.associativity"
    assert ei.value.witness == (1, 1, 2)


def test_dual_kz2_isomorphic_to_kz2(kz2):
    d = dual_hopf(kz2)
    # frozen explicit iso: e -> d_e + d_g, g -> d_e - d_g
    f = LinearMap.from_matrix([[1, 1], [1, -1]])
    rep = check_map(f, kz2, d, ("algebra", "coalgebra", "antipode", "injective"))
    assert rep.ok


def test_double_dual_is_identity(ks3):
    dd = dual_hopf(dual_hopf(ks3))
    assert dd.mult == ks3.mult
    assert dd.comult == ks3.comult
    assert dd.antipode == ks3.antipode
    ident = LinearMap.from_matrix(_identity(6))
    assert check_map(ident, ks3, dd, ("algebra", "coalgebra", "antipode", "injective")).ok


def test_dual_ks3_commutative_noncocommutative(ks3):
    d = dual_hopf(ks3)
    assert d.algebra.is_commutative()
    cocomm = all(d.coalgebra.comul_row(i) ==
                 tuple(sorted((k, j, c) for j, k, c in d.coalgebra.comul_row(i)))
                 for i in range(6))
    # S3 is noncommutative, so its dual is non-cocommutative
    flipped_equal = True
    for i in range(6):
        lhs = {(j, k): c for j, k, c in d.coalgebra.comul_row(i)}
        rhs = {(k, j): c for j, k, c in d.coalgebra.comul_row(i)}
        if lhs != rhs:
            flipped_equal = False
    assert not flipped_equal


def test_opposites(kz2, ks3):
    assert opposites(kz2, "op").mult == kz2.mult          # commutative
    assert opposites(ks3, "cop").comult == ks3.comult     # group-likes
    assert opposites(opposites(ks3, "op"), "op").mult == ks3.mult
    assert opposites(ks3, "opcop").antipode == ks3.antipode
    with pytest.raises(ValueError):
        opposites(ks3, "flip")


def test_integrals_kz2(kz2):
    ip = integrals(kz2)
    # frozen: Lambda = e + g (normalized so <lambda, Lambda> = 1), lambda = d_e
    assert ip.Lambda == {0: 1, 1: 1}
    assert ip.lam == {0: 1}


def test_integrals_ks3(ks3):
    ip = integrals(ks3)
    assert ip.Lambda == {i: 1 for i in range(6)}
    assert ip.lam == {0: 1}
    # Lambda -> lambda = eps: <lambda, e_b Lambda> = eps(e_b)
    assert tuple(vec_dot(ip.lam, ks3.algebra.mul_sparse({b: F(1)}, ip.Lambda))
                 for b in range(6)) == ks3.counit


def test_integrals_trivial():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    ip = integrals(h)
    assert ip.Lambda == {0: 1} and ip.lam == {0: 1}


def sweedler_h4():
    """Sweedler's 4-dimensional Hopf algebra on basis (1, g, x, gx):
    g^2 = 1, x^2 = 0, xg = -gx, Delta(x) = x (x) 1 + g (x) x."""
    mult = Tensor3.from_entries((4, 4, 4), [
        (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
        (1, 0, 1, 1), (2, 0, 2, 1), (3, 0, 3, 1),
        (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, 1),
        (2, 1, 3, -1), (3, 1, 2, -1),
    ])
    comult = Tensor3.from_entries((4, 4, 4), [
        (0, 0, 0, 1), (1, 1, 1, 1),
        (2, 2, 0, 1), (2, 1, 2, 1),
        (3, 3, 1, 1), (3, 0, 3, 1),
    ])
    anti = LinearMap.from_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return HopfData(StructureAlgebra(4, mult, vec([1, 0, 0, 0])),
                    StructureCoalgebra(4, comult, vec([1, 1, 0, 0])),
                    anti)


def test_integrals_refuse_nonsemisimple():
    h = sweedler_h4()
    assert verify_hopf(h).ok
    # H_4 has no nonzero two-sided integral, which integrals() must detect
    with pytest.raises(NotSemisimple):
        integrals(h)


def _integrals_on_every_index(h):
    """(Lambda, lambda) from the equations e_i x = eps(e_i) x = x e_i for
    every basis index i, normalized as integrals() normalizes them."""
    n = h.dim

    def kernel_line(alg, eps):
        rows = []
        for i in range(n):
            for c in range(n):
                for prod in (alg.mul_sparse({i: F(1)}, {c: F(1)}),
                             alg.mul_sparse({c: F(1)}, {i: F(1)})):
                    row = {r: prod.get(r, 0) - (eps[i] if r == c else 0) for r in range(n)}
                    rows.append({r: x for r, x in row.items() if x})
        ker = kernel_basis(rows, n)
        assert len(ker) == 1
        return ker[0]

    lam_ = kernel_line(h.algebra, h.counit)
    lam = kernel_line(convolution_algebra(h.coalgebra), h.unit)
    lam = {k: F(x) / vec_dot(lam, sp(h.unit)) for k, x in lam.items()}
    return {k: F(x) / vec_dot(lam, lam_) for k, x in lam_.items()}, lam


def test_integrals_from_generator_equations(ks3, double_s3, monkeypatch):
    # verified inputs write the integral equations for the generators only,
    # and the kernel, hence Lambda and lambda, is the one of every index
    seen = []
    real = hopfcore._integral_equations

    def recorded(alg, eps, indices):
        seen.append(tuple(indices))
        return real(alg, eps, indices)

    monkeypatch.setattr(hopfcore, "_integral_equations", recorded)
    from hopfsmash.demos import cyclic_table
    dz3 = drinfeld_double(group_algebra(cyclic_table(3)))[0]
    for h in (ks3, dz3, double_s3[0]):
        seen.clear()
        ip = integrals(h)
        assert seen == [h.algebra.generators, convolution_algebra(h.coalgebra).generators]
        assert len(seen[0]) < h.dim
        assert (ip.Lambda, ip.lam) == _integrals_on_every_index(h)


def test_check_map_examples(kz2, ks3):
    ident = LinearMap.from_matrix(_identity(2))
    assert check_map(ident, kz2, kz2, ("algebra", "coalgebra", "antipode", "injective")).ok
    # eps: kS3 -> k as an algebra map
    triv = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    eps = LinearMap.from_matrix((ks3.counit,))
    assert check_map(eps, ks3.algebra, triv.algebra, ("algebra",)).ok
    # the flip map on pointwise k^3 is an algebra map (commutativity)
    k3 = pointwise_algebra(3)
    flip = LinearMap.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert check_map(flip, k3, k3, ("algebra", "injective")).ok
    # f(e_3) = e_0 + e_3 on kS3: each check names its first failing case
    rows = [list(r) for r in _identity(6)]
    rows[0][3] = F(1)
    bent = LinearMap.from_matrix(rows)
    rep = check_map(bent, ks3, ks3, ("algebra", "coalgebra"))
    assert rep.find("algebra_map").witness == (1, 3)
    assert rep.find("coalgebra_map").witness == (3,)
    assert rep.find("counit_preserved").witness == (3,)
    with pytest.raises(DimensionMismatch):
        check_map(ident, ks3, ks3, ("algebra",))


def test_check_map_refuses_a_non_unital_algebra_map():
    # k^2 -> k^3, e_i |-> e_i: multiplicative and injective, but it sends
    # 1 = e_0 + e_1 to e_0 + e_1, not to e_0 + e_1 + e_2
    f = LinearMap(2, 3, ({0: 1}, {1: 1}))
    rep = check_map(f, pointwise_algebra(2), pointwise_algebra(3), ("algebra", "injective"))
    assert rep.find("algebra_map").passed
    assert rep.find("injective").passed
    assert [c.name for c in rep.failures()] == ["unit_preserved"]


@pytest.mark.parametrize("breaks", [{2: "right"}, {3: "left"},
                                    {1: "left", 2: "right"}, {1: "right", 3: "left"}],
                         ids=["right", "left", "left-first", "right-first"])
def test_counit_law_witness_is_the_first_failing_index(breaks):
    # k^4 with group-like e_i and counit 1 everywhere; Delta(e_i) = e_0 (x) e_i
    # breaks the right counit law alone at i, Delta(e_i) = e_i (x) e_0 the left
    n = 4
    legs = {i: {"right": (0, i), "left": (i, 0)}.get(breaks.get(i), (i, i)) for i in range(n)}
    coal = StructureCoalgebra(n, Tensor3.from_entries(
        (n, n, n), [(i, a, b, 1) for i, (a, b) in legs.items()]), (1,) * n)
    rep = verify_coalgebra(coal)
    assert rep.find("counit_law").witness == (min(breaks),)


small_rationals = st.one_of(st.just(F(0)),
                            st.fractions(min_value=-4, max_value=4, max_denominator=3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_linear_map_agrees_with_dense_reference(p, q, r, data):
    def draw_mat(nrows, ncols):
        return mat(data.draw(st.lists(st.lists(small_rationals, min_size=ncols, max_size=ncols),
                                      min_size=nrows, max_size=nrows)))

    a, b = draw_mat(q, p), draw_mat(r, q)
    v = vec(data.draw(st.lists(small_rationals, min_size=p, max_size=p)))
    f, g = LinearMap.from_matrix(a), LinearMap.from_matrix(b)
    assert f.matrix == a and (f.source_dim, f.target_dim) == (p, q)
    assert f.apply_sparse(sp(v)) == sp(_mat_vec(a, v))
    assert g.compose(f).matrix == _mat_mul(b, a)
    assert f.transpose().matrix == tuple(zip(*a))
    assert f.rank() == p - len(kernel_basis([sp(row) for row in a], p))
    assert f.is_identity() == (p == q and a == _identity(p))
    # the identity with at most one entry changed
    near = [list(row) for row in _identity(p)]
    i, j = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    near[i][j] = data.draw(small_rationals)
    near = mat(near)
    nf = LinearMap.from_matrix(near)
    assert nf.is_identity() == (near == _identity(p))
    # a square map: its inverse is the dense inverse, or None when singular
    sq = LinearMap.from_matrix(data.draw(st.sampled_from([near, draw_mat(p, p)])))
    inv = sq.inverse()
    if kernel_basis([sp(row) for row in sq.matrix], p) == []:
        assert _mat_mul(sq.matrix, inv.matrix) == _identity(p)
    else:
        assert inv is None
    # equal maps hash equal, whatever order their columns were filled in
    twin = LinearMap(p, q, [dict(reversed(col.items())) for col in f.cols])
    assert twin == f.transpose().transpose() == f and hash(twin) == hash(f)


def test_linear_map_refuses_misfit_shapes():
    with pytest.raises(DimensionMismatch):
        LinearMap.from_matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        LinearMap(2, 2, [{0: F(1)}])
    with pytest.raises(DimensionMismatch):
        LinearMap(1, 2, [{2: F(1)}])


def test_drinfeld_double_kz2(kz2, double_z2):
    dd, q = double_z2
    assert dd.dim == 4
    assert dd.algebra.is_commutative()
    from hopfsmash.qtriang import verify_qt
    assert verify_qt(q).ok


def test_drinfeld_double_trivial_group():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    dd, q = drinfeld_double(h)
    assert dd.dim == 1
    assert q.R.terms == {(0, 0): 1}


def test_drinfeld_double_ks3(double_s3):
    dd, q = double_s3
    assert dd.dim == 36
    from hopfsmash.qtriang import verify_qt
    assert verify_qt(q).ok


def test_drinfeld_double_ks3_tensors_pinned(double_s3, structure_digest):
    # exact structure tensors of D(kS3), pinned from the build that recomputed
    # each dragged column for every (a, b, c, d)
    dd, q = double_s3
    assert structure_digest(dd.mult, dd.unit) == "4d8a157f4ea90ec0"
    assert structure_digest(dd.comult, dd.counit) == "f78ceb642fc6ed05"
    assert structure_digest(dd.antipode.matrix) == "670696955b10e717"
    assert structure_digest(q.R, q.Rinv) == "33d65f8c5f35a9a8"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_antipode_involutive_agrees_with_dense_reference(ks3, double_z2, data):
    h = data.draw(st.sampled_from([ks3, double_z2[0]]))
    n = h.dim
    anti = [list(row) for row in h.antipode.matrix]
    if data.draw(st.booleans()):
        # D S D^{-1} for a diagonal D: still an involution, no longer S
        d = [data.draw(st.sampled_from([F(1), F(-1), F(2), F(1, 3)])) for _ in range(n)]
        anti = [[d[r] * anti[r][c] / d[c] for c in range(n)] for r in range(n)]
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        anti[i][j] += data.draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
    bent = HopfData(h.algebra, h.coalgebra, LinearMap.from_matrix(anti))
    dense = _mat_mul(bent.antipode.matrix, bent.antipode.matrix) == _identity(n)
    assert verify_hopf(bent).find("antipode_involutive").passed == dense


def test_double_makes_host_module_algebra(kz2, double_z2):
    # the validating check for the double's product convention: the canonical
    # action formulas must make H a quantum commutative module algebra
    from hopfsmash.smashcons import double_module_algebra
    m, q = double_module_algebra(kz2, double_z2)
    from hopfsmash.modalg import is_quantum_commutative, verify_module_algebra
    assert verify_module_algebra(m).ok
    assert is_quantum_commutative(q, m) == (True, None)


def test_heisenberg_kz2_is_m2(kz2):
    hz = heisenberg_double(kz2)
    assert hz.dim == 4
    # enumeration oracle: exact center has dimension 1 and the only multiset
    # with one block and sum of squares 4 is {2}
    assert len(hz.center_basis()) == 1
    from hopfsmash.repdim import wedderburn_blocks
    assert wedderburn_blocks(hz).blocks == (2,)


def _heisenberg_reference(h):
    """The Heisenberg double H # H* by its own product loop, kept as a
    reference for the smash kernel: (l_i # p_a)(l_j # p_b) =
    l_i (p_a1 . l_j) # p_a2 p_b with the hit p . l = l_(1) <p, l_(2)>."""
    n = h.dim
    nn = n * n
    rev_mult = dual_coalgebra(h.algebra).comul_row
    rev_comul = {}
    for i in range(n):
        for j, k, c in h.coalgebra.comul_row(i):
            rev_comul.setdefault((j, k), []).append((i, c))
    rowdicts = {}
    for i, a, j, b in itertools.product(range(n), repeat=4):
        cell = {}
        for a1, a2, c1 in rev_mult(a):
            for j1, j2, c2 in h.coalgebra.comul_row(j):
                if j2 != a1:
                    continue
                for m, c3 in h.algebra.mul_row(i, j1):
                    for k, c4 in rev_comul.get((a2, b), ()):
                        sp_add(cell, m * n + k, c1 * c2 * c3 * c4)
        if cell:
            rowdicts[(i * n + a, j * n + b)] = cell
    unit = [0] * nn
    for i, ci in h.algebra.unit_sparse.items():
        for a, ca in sp(h.counit).items():
            unit[i * n + a] = ci * ca
    return StructureAlgebra(nn, Tensor3.from_row_dicts((nn, nn, nn), rowdicts), tuple(unit))


@pytest.mark.parametrize("host", ["kZ2", "kS3", "kS3^cop", "D(kZ2)", "(kS3)*"])
def test_heisenberg_double_matches_the_reference_loop(host, kz2, ks3, double_z2):
    # (kS3)* is the one host here that is not cocommutative, so only it tells
    # the left hit l_(1) <p, l_(2)> from the right hit <p, l_(1)> l_(2)
    h = {"kZ2": kz2, "kS3": ks3, "kS3^cop": opposites(ks3, "cop"), "D(kZ2)": double_z2[0],
         "(kS3)*": dual_hopf(ks3)}[host]
    hz = heisenberg_double(h)
    ref = _heisenberg_reference(h)
    assert hz.mult.dense() == ref.mult.dense()
    assert hz.unit == ref.unit


def _smash_reference(alg, h, action):
    """A # H by the loop smash_carrier ran over every (a, b, i, j) and every
    Sweedler term of Delta(e_i), kept as a reference for its sparse loop:
    (a # e_i)(b # e_j) = a (e_p . b) # e_q e_j over Delta(e_i) = e_p (x) e_q."""
    na, nh = alg.dim, h.dim
    n = na * nh

    def entries():
        for a in range(na):
            for b in range(na):
                lefts = [alg.mul_sparse({a: 1}, action.act({p: 1}, {b: 1})) for p in range(nh)]
                for i in range(nh):
                    for j in range(nh):
                        for p, q, c in h.coalgebra.comul_row(i):
                            for m, cm in h.algebra.mul_row(q, j):
                                for t, ct in lefts[p].items():
                                    yield a * nh + i, b * nh + j, t * nh + m, c * cm * ct

    unit = [0] * n
    for a, ca in alg.unit_sparse.items():
        for t, ct in h.algebra.unit_sparse.items():
            unit[a * nh + t] = ca * ct
    return StructureAlgebra(n, Tensor3.from_entries((n, n, n), entries()), tuple(unit))


def _random_smash_data(seed):
    """A random 3-dimensional product and a random action tensor of (kS3)*
    on it, every row with 0 to 3 terms from {-2, -1, 1/2, 1}: a formula
    input, neither associative nor an action, on which terms cancel."""
    rng = random.Random(seed)
    h = dual_hopf(dm.k_s3())

    def cells(d0, d1, d2):
        return [(i, j, k, rng.choice((-2, -1, F(1, 2), 1)))
                for i in range(d0) for j in range(d1)
                for k in rng.sample(range(d2), rng.choice((0, 1, 2, 3)))]

    alg = StructureAlgebra(3, Tensor3.from_entries((3, 3, 3), cells(3, 3, 3)), (1, 0, F(1, 2)))
    return alg, h, Tensor3.from_entries((h.dim, 3, 3), cells(h.dim, 3, 3))


SMASH_CARRIERS = ["H#D(kZ2)", "H#D(kZ3)", "H#D(kS3)", "k3#kS3", "Heis(kS3^cop)",
                  "Heis((kS3)*)", "random-0", "random-1", "random-2"]


@pytest.mark.parametrize("carrier", SMASH_CARRIERS)
def test_smash_carrier_matches_the_reference_loop(carrier, kz2, ks3, double_z2, double_s3):
    # _rows are compared, not dense(): the same sorted cells, () where empty
    from hopfsmash.smashcons import double_module_algebra

    def double_smash(h, double):
        m, _ = double_module_algebra(h, double)
        return m.A, m.host, m.action

    def heisenberg(h):
        return h.algebra, dual_hopf(h), h.coalgebra.comult.permuted((2, 0, 1))

    kz3 = group_algebra(dm.cyclic_table(3))
    k3 = dm.k3_module_algebra(ks3)
    args = {"H#D(kZ2)": lambda: double_smash(kz2, double_z2),
            "H#D(kZ3)": lambda: double_smash(kz3, drinfeld_double(kz3)),
            "H#D(kS3)": lambda: double_smash(ks3, double_s3),
            "k3#kS3": lambda: (k3.A, k3.host, k3.action),
            "Heis(kS3^cop)": lambda: heisenberg(opposites(ks3, "cop")),
            "Heis((kS3)*)": lambda: heisenberg(dual_hopf(ks3))}.get(
                carrier, lambda: _random_smash_data(int(carrier.removeprefix("random-"))))()
    if carrier.startswith("random"):
        alg, h, action = args
        # some a (e_p . b) loses a term to cancellation
        assert any({m for k, _ in action.row(p, b) for m, _ in alg.mul_row(a, k)}
                   != set(alg.mul_sparse({a: 1}, dict(action.row(p, b))))
                   for a in range(3) for b in range(3) for p in range(h.dim))
    built, ref = hopfcore.smash_carrier(*args), _smash_reference(*args)
    assert built.mult._rows == ref.mult._rows
    assert built.unit == ref.unit
    assert any(any(plane) for plane in built.mult._rows)


@pytest.mark.parametrize("host", ["kS3", "(kS3)*"])
def test_dual_and_opposite_builders_match_the_reference_loops(host, ks3):
    # the hand-written leg moves these builders used to run, kept here as the
    # reference; kS3 is not commutative and (kS3)* is not cocommutative, so
    # between them every builder below changes its input and a wrong leg
    # order shows on one of the two
    h = {"kS3": ks3, "(kS3)*": dual_hopf(ks3)}[host]
    n, alg, coal = h.dim, h.algebra, h.coalgebra

    def built(entries):
        return Tensor3.from_entries((n, n, n), entries)

    op = built((j, i, k, c) for i in range(n) for j in range(n) for k, c in alg.mul_row(i, j))
    cop = built((i, k, j, c) for i in range(n) for j, k, c in coal.comul_row(i))
    conv = built((j, k, i, c) for i in range(n) for j, k, c in coal.comul_row(i))
    dual = built((i, j, k, c) for j in range(n) for k in range(n) for i, c in alg.mul_row(j, k))
    assert opposite_algebra(alg) == StructureAlgebra(n, op, alg.unit)
    assert co_opposite(coal) == StructureCoalgebra(n, cop, coal.counit)
    assert convolution_algebra(coal) == StructureAlgebra(n, conv, coal.counit)
    assert dual_coalgebra(alg) == StructureCoalgebra(n, dual, alg.unit)
    assert (op != alg.mult) == (host == "kS3")
    assert (cop != coal.comult) == (host == "(kS3)*")


def _kronecker(a, b):
    """The dense product tensor of A (x) B on the index x * dim B + y."""
    nb = len(b)
    n = len(a) * nb
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for x1, x2, k in itertools.product(range(len(a)), repeat=3):
        for y1, y2, m in itertools.product(range(nb), repeat=3):
            out[x1 * nb + y1][x2 * nb + y2][k * nb + m] = a[x1][x2][k] * b[y1][y2][m]
    return out


def test_matrix_algebra_is_the_matrix_units():
    for t in (1, 2, 3):
        m = matrix_algebra(t)
        assert m.mult.dense() == [[[int(j == k and p == i and q == l)
                                    for p in range(t) for q in range(t)]
                                   for k in range(t) for l in range(t)]
                                  for i in range(t) for j in range(t)]
        assert m.unit == tuple(int(i == j) for i in range(t) for j in range(t))
        assert verify_algebra(m).ok


def test_tensor_algebra_is_the_kronecker_product(kz2, ks3, double_z2):
    for a, b in ((matrix_algebra(2), ks3.algebra), (kz2.algebra, double_z2[0].algebra),
                 (ks3.algebra, matrix_algebra(2))):
        ab = tensor_algebra(a, b)
        assert ab.mult.dense() == _kronecker(a.mult.dense(), b.mult.dense())
        assert ab.unit == tuple(x * y for x in a.unit for y in b.unit)
        assert verify_algebra(ab).ok


@pytest.mark.parametrize("nv", [0, 1, 2, 3])
def test_end_algebra_is_the_matrix_units_tensor_the_algebra(nv, kz2, ks3, double_z2):
    # a (x) e_i (x) k is E_ka (x) e_i of tensor_algebra(matrix_algebra(nv), A);
    # the rows are compared cell by cell, so order and () cells count too
    for alg in (kz2.algebra, ks3.algebra, double_z2[0].algebra, matrix_algebra(2)):
        na = alg.dim
        end, ref = end_algebra(nv, alg), tensor_algebra(matrix_algebra(nv), alg)
        moved = [(k * nv + a) * na + i for a in range(nv) for i in range(na) for k in range(nv)]
        back = {m: x for x, m in enumerate(moved)}
        assert end.dim == ref.dim == len(back)
        assert all(end.mul_row(x, y) == tuple(sorted(
                       (back[m], c) for m, c in ref.mul_row(moved[x], moved[y])))
                   for x in range(end.dim) for y in range(end.dim))
        assert end.unit == tuple(ref.unit[m] for m in moved)
        assert end.report.ok


def test_heisenberg_trivial():
    h = group_algebra(GroupTable.from_lists(["e"], [[0]]))
    hz = heisenberg_double(h)
    assert hz.dim == 1 and hz.unit == vec([1])


def test_heisenberg_ks3_simple(ks3):
    hz = heisenberg_double(ks3)
    assert hz.dim == 36
    assert len(hz.center_basis()) == 1
    from hopfsmash.repdim import wedderburn_blocks
    # one block, sum of squares 36 -> simple of dimension 6
    assert wedderburn_blocks(hz).blocks == (6,)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 6))
def test_cyclic_group_algebras(n):
    h = group_algebra(dm.cyclic_table(n))
    assert h.dim == n
    assert verify_hopf(h).ok
    ip = integrals(h)
    # Lambda = sum of all group elements, lambda = delta_e, for every kZ_n
    assert ip.Lambda == {i: F(1) for i in range(n)}
    assert ip.lam == {0: F(1)}


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 5))
def test_cyclic_double_is_qt(n):
    from hopfsmash.qtriang import verify_qt
    dd, q = drinfeld_double(group_algebra(dm.cyclic_table(n)))
    assert dd.dim == n * n
    assert verify_qt(q).ok


def test_map_scans_read_the_opposite_in_place(ks3):
    # S of kS3 is an anti-algebra map and S of (kS3)* an anti-coalgebra map;
    # on a twin with one antipode entry moved, the in-place swaps list what
    # the scans over the built opposites list
    alg, dual = ks3.algebra, dual_hopf(ks3)
    coal = dual.coalgebra
    assert list(hopfcore.algebra_map_failures(ks3.antipode, alg, alg))
    assert not list(hopfcore.algebra_map_failures(ks3.antipode, alg, alg, dst_op=True))
    assert not list(hopfcore.algebra_map_failures(ks3.antipode, alg, alg, src_op=True))
    assert list(hopfcore.coalgebra_map_failures(dual.antipode, coal, coal))
    assert not list(hopfcore.coalgebra_map_failures(dual.antipode, coal, coal, cop=True))
    for h, cell in ((ks3, (1, 2)), (dual, (4, 0))):
        anti = [list(row) for row in h.antipode.matrix]
        anti[cell[0]][cell[1]] += 1
        f = LinearMap.from_matrix(anti)
        a, c = h.algebra, h.coalgebra
        dst_op = list(hopfcore.algebra_map_failures(f, a, a, dst_op=True))
        src_op = list(hopfcore.algebra_map_failures(f, a, a, src_op=True))
        assert dst_op and dst_op == list(hopfcore.algebra_map_failures(f, a, opposite_algebra(a)))
        assert src_op == list(hopfcore.algebra_map_failures(f, opposite_algebra(a), a))
        assert src_op == sorted((j, i) for i, j in dst_op)
        cop = list(hopfcore.coalgebra_map_failures(f, c, c, cop=True))
        assert cop and cop == list(hopfcore.coalgebra_map_failures(f, co_opposite(c), c))


# ---------------------------------------------------------------------------
# the support-indexed law kernels against the scans over every case
# ---------------------------------------------------------------------------

def _algebra_map_reference(f, src, dst, right=None, src_op=False, dst_op=False):
    """The scan algebra_map_failures ran over every pair (i, j), kept as the
    reference for its support-indexed scan."""
    cols = f.cols
    for i in range(src.dim):
        for j in range(src.dim) if right is None else right:
            lhs = f.apply_sparse(dict(src.mul_row(j, i) if src_op else src.mul_row(i, j)))
            if lhs != (dst.mul_sparse(cols[j], cols[i]) if dst_op
                       else dst.mul_sparse(cols[i], cols[j])):
                yield (i, j)


def _module_law_reference(alg, action, right=None):
    """The scan module_law_failures ran over every triple (i, j, x), kept as
    the reference for its support-indexed scan."""
    rows = action._rows
    mult = alg.mult._rows
    for i in range(alg.dim):
        for j in range(alg.dim) if right is None else right:
            for x in range(action.dims[1]):
                lhs: dict = {}
                for k, c in mult[i][j]:
                    for y, w in rows[k][x]:
                        sp_add(lhs, y, c * w)
                rhs: dict = {}
                for k, c in rows[j][x]:
                    for y, w in rows[i][k]:
                        sp_add(rhs, y, c * w)
                if lhs != rhs:
                    yield (i, j, x)


def _moved(t, i, j, k, delta):
    """A copy of the tensor t with t[i][j][k] moved by delta; a cell may
    empty out, or an empty one fill."""
    cell = dict(t.row(i, j))
    cell[k] = cell.get(k, 0) + delta
    planes = [list(plane) for plane in t._rows]
    planes[i][j] = tuple(sorted((m, c) for m, c in cell.items() if c))
    return Tensor3(t.dims, tuple(map(tuple, planes)))


def _fault_twins(t):
    """One-constant twins of t: a constant moved, a single-term cell
    emptied, and an empty cell filled (a second term in the first cell
    when no cell is empty)."""
    d0, d1, d2 = t.dims
    cells = [(i, j) for i in range(d0) for j in range(d1)]
    full = [ij for ij in cells if t.row(*ij)]
    i, j = full[len(full) // 2]
    k, c = t.row(i, j)[0]
    twins = [_moved(t, i, j, k, 1)]
    single = [ij for ij in full if len(t.row(*ij)) == 1]
    if single:
        i, j = single[-1]
        twins.append(_moved(t, i, j, t.row(i, j)[0][0], -t.row(i, j)[0][1]))
    empty = [ij for ij in cells if not t.row(*ij)]
    if empty:
        twins.append(_moved(t, *empty[0], d2 - 1, F(1, 2)))
    else:
        i, j = full[0]
        k = next(m for m in range(d2) if m not in dict(t.row(i, j)))
        twins.append(_moved(t, i, j, k, -2))
    return twins


LAW_HOSTS = ["kS3", "D(kZ2)", "D(kZ3)", "D(kS3)", "M_2", "H#D(kZ2)", "kZ2 on 1, 2g"]


def _law_host(name, request):
    """(algebra, extra maps) of one of LAW_HOSTS; the maps are the host's
    own (anti-)automorphisms.  kZ2 on the basis 1, 2g has halves."""
    if name == "M_2":
        transpose = LinearMap(4, 4, [{(x % 2) * 2 + x // 2: 1} for x in range(4)])
        return matrix_algebra(2), [transpose]
    if name == "H#D(kZ2)":
        from hopfsmash.smashcons import smash_algebra
        return smash_algebra(request.getfixturevalue("double_mod_z2")[0]).carrier, []
    h = _hopf_host(name, request)
    return h.algebra, [h.antipode]


def _hopf_host(name, request):
    """The Hopf algebra named in LAW_HOSTS or HOPF_HOSTS."""
    return {"kS3": lambda: request.getfixturevalue("ks3"),
            "D(kZ2)": lambda: request.getfixturevalue("double_z2")[0],
            "D(kZ3)": lambda: drinfeld_double(group_algebra(dm.cyclic_table(3)))[0],
            "D(kS3)": lambda: request.getfixturevalue("double_s3")[0],
            "kZ2 on 1, 2g": lambda: _rescaled_kz2(2),
            "kZ2 on 1, g/2": lambda: _rescaled_kz2(F(1, 2))}[name]()


@pytest.mark.parametrize("host", LAW_HOSTS)
def test_indexed_algebra_map_scan_lists_the_full_scans_failures(host, request):
    # genuine algebras and their one-constant twins, as source and as target,
    # under the identity, a map with two-term columns and the host's own
    # (anti-)automorphism; every flag and both `right`s
    alg, maps = _law_host(host, request)
    n = alg.dim
    twins = [StructureAlgebra(n, t, alg.unit) for t in _fault_twins(alg.mult)]
    shear = LinearMap(n, n, [{i: 1, (i + 1) % n: 1} for i in range(n)])
    ident = LinearMap(n, n, [{i: 1} for i in range(n)])
    failing = 0
    for f in (ident, shear, *maps):
        for src, dst in ((alg, alg), *((alg, t) for t in twins), *((t, alg) for t in twins)):
            for right in (None, alg.generators):
                for src_op, dst_op in itertools.product((False, True), repeat=2):
                    args = (f, src, dst, right, src_op, dst_op)
                    got = list(hopfcore.algebra_map_failures(*args))
                    assert got == list(_algebra_map_reference(*args))
                    failing += bool(got)
    assert failing    # the comparison saw failures, not only passes
    assert not list(hopfcore.algebra_map_failures(ident, alg, alg))


@pytest.mark.parametrize("host", LAW_HOSTS)
def test_indexed_module_law_scan_lists_the_full_scans_failures(host, request):
    # the regular module law (associativity) of each algebra and of its
    # twins, with either product acting, on every index and on the generators
    alg, _ = _law_host(host, request)
    twins = [StructureAlgebra(alg.dim, t, alg.unit) for t in _fault_twins(alg.mult)]
    failing = 0
    for a in (alg, *twins):
        for action in (alg.mult, *(t.mult for t in twins)):
            for right in (None, alg.generators):
                got = list(hopfcore.module_law_failures(a, action, right))
                assert got == list(_module_law_reference(a, action, right))
                failing += bool(got)
    assert failing
    assert not list(hopfcore.module_law_failures(alg, alg.mult))


def test_indexed_module_law_scan_on_a_non_square_action(kz2, double_z2):
    # H # D(kZ2) acting on H (x) M, and twins of that action
    from hopfsmash.smashcons import _double_action_tensor, double_module_algebra, smash_algebra
    big = smash_algebra(double_module_algebra(kz2, double_z2)[0]).carrier
    action = _double_action_tensor(kz2)
    assert not list(hopfcore.module_law_failures(big, action))
    for twin in _fault_twins(action):
        got = list(hopfcore.module_law_failures(big, twin))
        assert got and got == list(_module_law_reference(big, twin))


def _comult_multiplicative_reference(alg, coal, right):
    """The scan comult_multiplicative_failures ran over every Sweedler pair,
    kept as the reference for its partner lists."""
    rows = alg.mult._rows
    for i in range(alg.dim):
        for j in right:
            lhs: dict = {}
            for m, c in rows[i][j]:
                for a, b, w in coal.comul_row(m):
                    sp_add(lhs, (a, b), c * w)
            rhs: dict = {}
            for a, b, w in coal.comul_row(i):
                ra, rb = rows[a], rows[b]
                for a2, b2, w2 in coal.comul_row(j):
                    if (ps := ra[a2]) and (qs := rb[b2]):
                        c = w * w2
                        for p, cp in ps:
                            for q, cq in qs:
                                sp_add(rhs, (p, q), c * cp * cq)
            if lhs != rhs:
                yield (i, j)


def _measuring_reference(h, action, alg, acting=None):
    """The scan measuring_failures ran over every (x, y), kept as the
    reference for its row accumulators."""
    rows = action._rows
    mult = alg.mult._rows
    na = action.dims[1]
    for i in range(h.dim) if acting is None else acting:
        ri = rows[i]
        delta = h.coalgebra.comul_row(i)
        for x in range(na):
            left = [(mult[k], rows[b], c * ck) for a, b, c in delta for k, ck in rows[a][x]]
            mx = mult[x]
            for y in range(na):
                lhs: dict = {}
                for k, ck in mx[y]:
                    for m, cm in ri[k]:
                        sp_add(lhs, m, ck * cm)
                rhs: dict = {}
                for mk, rb, c in left:
                    for k2, c2 in rb[y]:
                        cc = c * c2
                        for m, cm in mk[k2]:
                            sp_add(rhs, m, cc * cm)
                if lhs != rhs:
                    yield (i, x, y)


def _quantum_commutativity_reference(r, alg, action):
    """The scan quantum_commutativity_failures ran through mul_sparse, kept
    as the reference for its inline products."""
    r_items = list(r.items())
    for a in range(alg.dim):
        moved_a = [dict(action.row(r1, a)) for (r1, _), _ in r_items]
        for b in range(alg.dim):
            rhs: dict = {}
            for ((_, r2), c), va in zip(r_items, moved_a):
                for k, w in alg.mul_sparse(dict(action.row(r2, b)), va).items():
                    sp_add(rhs, k, c * w)
            if alg.mul_sparse({a: 1}, {b: 1}) != rhs:
                yield (a, b)


def _adjoint_reference(h):
    """adjoint_action_tensor by the entry stream into from_entries it used
    before: h .ad x = h_(1) x S(h_(2)), cell by cell through mul_sparse."""
    n = h.dim
    s_cols = h.antipode.cols

    def entries():
        for i in range(n):
            for j in range(n):
                cell: dict = {}
                for a, b, c in h.coalgebra.comul_row(i):
                    for m, cm in h.algebra.mul_sparse(dict(h.algebra.mul_row(a, j)),
                                                      s_cols[b]).items():
                        sp_add(cell, m, c * cm)
                for m, cm in cell.items():
                    yield i, j, m, cm

    return Tensor3.from_entries((n, n, n), entries())


def _hopf_twins(h):
    """h and its one-constant twins: the product, the coproduct or the
    antipode moved alone."""
    n = h.dim
    anti = [dict(col) for col in h.antipode.cols]
    k, c = next(iter(anti[n - 1].items()))
    anti[n - 1][k] = c + 1
    anti[0][n - 1] = anti[0].get(n - 1, 0) + F(1, 2)
    anti = LinearMap(n, n, [{k: c for k, c in col.items() if c} for col in anti])
    return [h, HopfData(h.algebra, h.coalgebra, anti),
            *(HopfData(StructureAlgebra(n, t, h.unit), h.coalgebra, h.antipode)
              for t in _fault_twins(h.mult)),
            *(HopfData(h.algebra, StructureCoalgebra(n, t, h.counit), h.antipode)
              for t in _fault_twins(h.comult))]


HOPF_HOSTS = ["kS3", "D(kZ2)", "D(kS3)", "kZ2 on 1, 2g", "kZ2 on 1, g/2"]


@pytest.mark.parametrize("host", HOPF_HOSTS)
def test_partnered_comult_scan_lists_the_full_scans_failures(host, request):
    # each twin of the product or coproduct, on every index and on S
    h = _hopf_host(host, request)
    failing = 0
    for t in _hopf_twins(h):
        for right in (range(h.dim), h.algebra.generators):
            got = list(hopfcore.comult_multiplicative_failures(t.algebra, t.coalgebra, right))
            assert got == list(_comult_multiplicative_reference(t.algebra, t.coalgebra, right))
            failing += bool(got)
    assert failing
    assert not list(hopfcore.comult_multiplicative_failures(h.algebra, h.coalgebra,
                                                            range(h.dim)))


@pytest.mark.parametrize("host", HOPF_HOSTS)
def test_adjoint_tensor_is_the_formula_cell_by_cell(host, request):
    # scalar types included: the cells are rat-normalised as from_entries did
    from hopfsmash.qtriang import adjoint_action_tensor
    for t in _hopf_twins(_hopf_host(host, request)):
        assert _typed(adjoint_action_tensor(t)) == _typed(_adjoint_reference(t))


def _measuring_worlds(request):
    """(name, H, action, A): the adjoint action of each Hopf host on itself
    and the module algebras k^3 over kS3, k^2 over kZ2 and kZ2 over D(kZ2)."""
    from hopfsmash.qtriang import adjoint_action_tensor
    worlds = []
    for name in HOPF_HOSTS:
        h = _hopf_host(name, request)
        worlds.append((name, h, adjoint_action_tensor(h), h.algebra))
    for name, m in (("k3 over kS3", request.getfixturevalue("m3")),
                    ("k2 over kZ2", dm.k2_module_algebra_over_z2()),
                    ("kZ2 over D(kZ2)", request.getfixturevalue("double_mod_z2")[0])):
        worlds.append((name, m.host, m.action, m.A))
    return worlds


@pytest.mark.parametrize("world", [*HOPF_HOSTS, "k3 over kS3", "k2 over kZ2", "kZ2 over D(kZ2)"])
def test_accumulated_measuring_scan_lists_the_full_scans_failures(world, request):
    # twins of the action, of the algebra acted on and of the coproduct,
    # acting on every index and on S
    _, h, action, alg = next(w for w in _measuring_worlds(request) if w[0] == world)
    na = alg.dim
    cases = [(h, action, alg), *((h, t, alg) for t in _fault_twins(action)),
             *((h, action, StructureAlgebra(na, t, alg.unit)) for t in _fault_twins(alg.mult)),
             *((HopfData(h.algebra, StructureCoalgebra(h.dim, t, h.counit), h.antipode),
                action, alg) for t in _fault_twins(h.comult))]
    failing = 0
    for args in cases:
        for acting in (None, h.algebra.generators):
            got = list(hopfcore.measuring_failures(*args, acting))
            assert got == list(_measuring_reference(*args, acting))
            failing += bool(got)
    assert failing
    assert not list(hopfcore.measuring_failures(h, action, alg))


def _qc_worlds(request):
    """(name, r, A, action): k^3 over kS3 under R = 1, k^2 over kZ2 under
    R-, the doubles D(kZ2) and D(kS3) on themselves by ad under their R, and
    H_R^* over (H^op, R^21) for kS3 and D(kZ2)."""
    from hopfsmash.qtriang import adjoint_action_tensor, hr_star_algebra, transmute
    m3, q_s3 = request.getfixturevalue("m3"), request.getfixturevalue("q_s3")
    k2 = dm.k2_module_algebra_over_z2()
    worlds = [("k3 over kS3", q_s3.R, m3.A, m3.action),
              ("k2 over kZ2 R-", dm.minus_r_z2(k2.host).R, k2.A, k2.action)]
    for name, fixture in (("D(kZ2)", "double_z2"), ("D(kS3)", "double_s3")):
        dh, q = request.getfixturevalue(fixture)
        worlds.append((name, q.R, dh.algebra, adjoint_action_tensor(dh)))
    d2 = request.getfixturevalue("double_z2")[1]
    for name, q in (("H_R* of kS3", q_s3), ("H_R* of D(kZ2)", d2)):
        bg = transmute(q)
        worlds.append((name, q.R.flip(), hr_star_algebra(bg), bg.dual_right_action))
    return worlds


@pytest.mark.parametrize("world", ["k3 over kS3", "k2 over kZ2 R-", "D(kZ2)", "D(kS3)",
                                   "H_R* of kS3", "H_R* of D(kZ2)"])
def test_inline_quantum_commutativity_lists_the_full_scans_failures(world, request):
    _, r, alg, action = next(w for w in _qc_worlds(request) if w[0] == world)
    cases = [(alg, action), *((alg, t) for t in _fault_twins(action)),
             *((StructureAlgebra(alg.dim, t, alg.unit), action) for t in _fault_twins(alg.mult))]
    failing = 0
    for a, t in cases:
        got = list(hopfcore.quantum_commutativity_failures(r, a, t))
        assert got == list(_quantum_commutativity_reference(r, a, t))
        failing += bool(got)
    assert failing


# ---------------------------------------------------------------------------
# builders that write each cell where it is formed, against from_entries
# ---------------------------------------------------------------------------

def _typed(t):
    """The cells of t with the type of each coefficient: int and the equal
    Fraction compare equal, so the type is checked on its own."""
    return [[tuple((k, c, type(c)) for k, c in cell) for cell in plane] for plane in t._rows]


def _rescaled_kz2(s):
    """kZ2 on the basis 1, x = s g: x x = s^2 1, Delta(x) = x (x) x / s,
    eps(x) = s, S = id; for s = 2 or 1/2 its constants have halves."""
    mult = Tensor3.from_entries((2, 2, 2), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                                            (1, 1, 0, s * s)])
    comult = Tensor3.from_entries((2, 2, 2), [(0, 0, 0, 1), (1, 1, 1, F(1) / s)])
    h = HopfData(StructureAlgebra(2, mult, (1, 0)), StructureCoalgebra(2, comult, (1, s)),
                 LinearMap(2, 2, [{0: 1}, {1: 1}]))
    h.report.require()
    return h


def _tensor_reference(a, b):
    """tensor_algebra by the entry stream into from_entries it used before."""
    nb = b.dim
    n = a.dim * nb
    entries = ((x1 * nb + y1, x2 * nb + y2, k * nb + m, ca * cb)
               for x1 in range(a.dim) for x2 in range(a.dim) if (ra := a.mul_row(x1, x2))
               for y1 in range(nb) for y2 in range(nb)
               for k, ca in ra for m, cb in b.mul_row(y1, y2))
    return StructureAlgebra(n, Tensor3.from_entries((n, n, n), entries),
                            tuple(ca * cb for ca in a.unit for cb in b.unit))


def test_tensor_algebra_matches_the_from_entries_reference(kz2, ks3, double_z2):
    # (1/4 . 1)(4 . 1) = 1: an integral product of halves stays an int
    quarter, four = _rescaled_kz2(F(1, 2)).algebra, _rescaled_kz2(2).algebra
    assert dict(quarter.mul_row(1, 1)) == {0: F(1, 4)}
    for a, b in ((quarter, four), (four, quarter), (matrix_algebra(2), ks3.algebra),
                 (kz2.algebra, double_z2[0].algebra), (quarter, matrix_algebra(2))):
        built, ref = tensor_algebra(a, b), _tensor_reference(a, b)
        assert _typed(built.mult) == _typed(ref.mult)
        assert built.unit == ref.unit
    assert tensor_algebra(quarter, four).mul_row(3, 3) == ((0, 1),)
    assert type(tensor_algebra(quarter, four).mul_row(3, 3)[0][1]) is int


@pytest.mark.parametrize("carrier", ["H#D(kZ2)", "Heis(kZ2 on 1, 2g)", "random-0", "random-1"])
def test_smash_carrier_cells_are_rat_normalised(carrier, kz2, double_z2):
    # the reference goes through from_entries, which reads every sum with rat
    from hopfsmash.smashcons import double_module_algebra
    if carrier == "H#D(kZ2)":
        m = double_module_algebra(kz2, double_z2)[0]
        args = (m.A, m.host, m.action)
    elif carrier.startswith("Heis"):
        h = _rescaled_kz2(2)
        args = (h.algebra, dual_hopf(h), h.coalgebra.comult.permuted((2, 0, 1)))
    else:
        args = _random_smash_data(int(carrier.removeprefix("random-")))
    built, ref = hopfcore.smash_carrier(*args), _smash_reference(*args)
    assert _typed(built.mult) == _typed(ref.mult)
    assert any(type(c) is F for plane in built.mult._rows for cell in plane for _, c in cell) \
        == carrier.startswith(("Heis", "random"))


def _double_product_reference(h):
    """The product of drinfeld_double(h) by the entry stream into
    from_entries it used before: (p_a >< b)(p_c >< d) =
    p_a * (b_(1) -> p_c <- S^{-1}(b_(3))) >< b_(2) d."""
    n = h.dim
    nn = n * n
    alg, sinv = h.algebra, h.antipode_inv
    dualalg = convolution_algebra(h.coalgebra)

    def dragged(c, t1, t3):
        out: dict = {}
        for y in range(n):
            for m1, w1 in alg.mul_row(y, t1):
                acc = sum(ws * w2 for r, ws in sinv.cols[t3].items()
                          for m2, w2 in alg.mul_row(r, m1) if m2 == c)
                if acc != 0:
                    sp_add(out, y, acc * w1)
        return out

    def products():
        for a, b, c, d in itertools.product(range(n), repeat=4):
            for t1, t2, t3, w in h.coalgebra.comul2_row(b):
                fq = dualalg.mul_sparse({a: 1}, dragged(c, t1, t3))
                for m, wm in alg.mul_row(t2, d):
                    for y, cy in fq.items():
                        yield a * n + b, c * n + d, y * n + m, w * wm * cy

    return Tensor3.from_entries((nn, nn, nn), products())


@pytest.mark.parametrize("host", ["kZ2", "kS3", "kZ2 on 1, 2g", "kZ2 on 1, g/2"])
def test_double_product_matches_the_from_entries_reference(host, kz2, ks3, double_z2,
                                                           double_s3):
    h = {"kZ2": kz2, "kS3": ks3, "kZ2 on 1, 2g": _rescaled_kz2(2),
         "kZ2 on 1, g/2": _rescaled_kz2(F(1, 2))}[host]
    dd = {"kZ2": double_z2, "kS3": double_s3}.get(host) or drinfeld_double(h)
    assert _typed(dd[0].mult) == _typed(_double_product_reference(h))
