import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmash import demos as dm
from hopfsmash.exactlin import (
    DimensionMismatch,
    Echelon,
    LinearMap,
    Subspace,
    Tensor3,
    TensorElem,
    _poly_gcd,
    commutant_rows,
    kernel_basis,
    mat,
    qdiv,
    rank,
    rat,
    rat_str,
    sorted_cell,
    sp,
    span_basis,
    split,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


# ---------------------------------------------------------------------------
# a dense reference: vectors are tuples, matrices row-major tuples of rows
# ---------------------------------------------------------------------------

def _dense(v, n):
    return tuple(v.get(i, F(0)) for i in range(n))


def _mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in m)


def _mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _identity(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def _dense_rref(vs, dim):
    """Reference: textbook Gauss-Jordan on dense rows, nonzero rows only."""
    rows = [list(v) for v in vs]
    out, r = [], 0
    for c in range(dim):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [F(x) / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


def _dense_pivots(ref):
    return tuple(next(c for c, x in enumerate(row) if x != 0) for row in ref)


def _dense_kernel(rows, ncols):
    """The basis of {v : rows v = 0} read off the RREF, one vector per free column."""
    ref = _dense_rref(rows, ncols)
    pivots = _dense_pivots(ref)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for row, p in zip(ref, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def _dense_solve(m, b):
    """A solution of m x = b with the free unknowns zero, or None."""
    ncols = len(m[0]) if m else 0
    ref = _dense_rref([tuple(row) + (bv,) for row, bv in zip(m, b)], ncols + 1)
    x = [F(0)] * ncols
    for row, p in zip(ref, _dense_pivots(ref)):
        if p == ncols:
            return None
        x[p] = row[ncols]
    return tuple(x)


def _coords(vs, v, dim):
    """Coordinates of v in the independent vectors vs, or None outside their span."""
    cols = tuple(tuple(u[i] for u in vs) for i in range(dim))
    return _dense_solve(cols, v) if vs else (() if not any(v) else None)


def _commutant_dense(mats, m):
    """The equations X g = g X on X flattened row-major, one per entry."""
    rows = []
    for g in mats:
        for r in range(m):
            for c in range(m):
                row = [F(0)] * (m * m)
                for k in range(m):
                    row[r * m + k] += g[k][c]
                    row[k * m + c] -= g[r][k]
                rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_rat_string_roundtrip():
    assert rat("3/2") == F(3, 2)
    assert rat("-7") == F(-7)
    # an integral value is the int itself, whatever form it is read from
    assert type(rat("4/2")) is int and rat("4/2") == 2
    assert type(rat(F(6, 3))) is int and rat(F(6, 3)) == 2
    assert type(rat("3/2")) is F
    assert rat_str(F(3, 2)) == "3/2"
    assert rat_str(F(5)) == "5"
    with pytest.raises(TypeError):
        rat(1.5)


def test_rat_refuses_inexact_and_ill_formed_scalars():
    for bad in (True, False, 1.0):
        with pytest.raises(TypeError):
            rat(bad)
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("one")


def test_rat_int_path_keeps_every_refusal_and_normalisation():
    # an exact int returns at once; nothing else takes that path
    class Small(int):
        pass

    assert rat(7) == 7 and type(rat(7)) is int
    assert rat(Small(3)) == 3 and type(rat(Small(3))) is int
    assert rat(F(4, 2)) == 2 and type(rat(F(4, 2))) is int
    for bad in (True, False, 1.0, 2.0, float("nan")):
        with pytest.raises(TypeError):
            rat(bad)
    for bad in ("1/0", "-3/0", "one", "1.5.2", "", "1/2/3"):
        with pytest.raises(ValueError):
            rat(bad)


@given(st.integers(-24, 24) | rationals, (st.integers(-6, 6) | rationals).filter(bool))
def test_qdiv_is_exact_and_int_exactly_when_integral(a, b):
    q = qdiv(a, b)
    assert q == F(a) / F(b)
    assert (type(q) is int) == ((F(a) / F(b)).denominator == 1)
    assert type(q) in (int, F)


def test_qdiv_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)
    with pytest.raises(ZeroDivisionError):
        qdiv(F(1, 2), F(0))


@given(st.integers(-30, 30), st.integers(1, 9), st.integers(1, 4))
def test_rat_reads_an_integral_value_as_an_int(p, q, k):
    for x in (F(p * k, k), f"{p * k}/{k}", str(p), p):
        assert type(rat(x)) is int and rat(x) == p
    r = rat(f"{p}/{q}")
    assert r == F(p, q) and (type(r) is int) == (p % q == 0)


def test_poly_gcd_is_monic():
    # (x - 1)(x - 2) and (2x - 4)(x + 3) share x - 2
    assert _poly_gcd([2, -3, 1], [-12, 2, 2]) == [-2, 1]
    assert _poly_gcd([1, 0, 1], [0, 1]) == [1]
    assert _poly_gcd([0, 0, 3], [0]) == [0, 0, 1]


def test_kernel_examples():
    assert kernel_basis([{0: F(1)}, {1: F(1)}], 2) == []
    k = kernel_basis([{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}], 2)
    assert len(k) == 1 and k[0][0] == -k[0][1] != 0
    assert kernel_basis([{}, {}, {}], 3) == [{0: 1}, {1: 1}, {2: 1}]
    with pytest.raises(DimensionMismatch):
        kernel_basis([{3: F(1)}], 3)


def test_tensor3_round_trip():
    t = Tensor3.from_dense([[[1, 0], [0, 2]], [[0, 0], [F(1, 3), 0]]])
    assert t.entry(1, 1, 0) == F(1, 3)
    assert t.entry(0, 0, 1) == 0
    assert Tensor3.from_dense(t.dense()) == t


@pytest.mark.parametrize("data", [[[[1, 0], [0]]], [[[1, 0], [0, 2, 3]]],
                                  [[[1, 0], [0, 2]], [[0, 0]]], [[[1], [0]], [[0], [2], [0]]]],
                         ids=["short-row", "long-row", "short-plane", "long-plane"])
def test_tensor3_from_dense_refuses_ragged_arrays(data):
    # the sizes come from the first plane and row; any other length is refused
    with pytest.raises(DimensionMismatch, match="ragged"):
        Tensor3.from_dense(data)


ORDERS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _assert_dense_transpose(t, order):
    # u[i_order[0]][i_order[1]][i_order[2]] = t[i_0][i_1][i_2], read off dense arrays
    u = t.permuted(order)
    assert u.dims == tuple(t.dims[m] for m in order)
    cells, moved = t.dense(), u.dense()
    for i in range(t.dims[0]):
        for j in range(t.dims[1]):
            for k in range(t.dims[2]):
                idx = (i, j, k)
                assert moved[idx[order[0]]][idx[order[1]]][idx[order[2]]] == cells[i][j][k]


@pytest.mark.parametrize("order", ORDERS)
def test_permuted_is_the_dense_transpose_of_an_action_tensor(order):
    action = dm.k3_module_algebra().action    # shape (dim kS3, dim k^3, dim k^3)
    assert action.dims == (6, 3, 3)
    _assert_dense_transpose(action, order)


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)), st.data())
def test_permuted_is_the_dense_transpose(dims, data):
    d0, d1, d2 = dims
    cells = data.draw(st.lists(st.lists(st.lists(rationals, min_size=d2, max_size=d2),
                                        min_size=d1, max_size=d1), min_size=d0, max_size=d0))
    t = Tensor3.from_dense(cells)
    for order in ORDERS:
        _assert_dense_transpose(t, order)
    assert t.permuted((0, 1, 2)) == t
    assert t.permuted((1, 2, 0)).permuted((2, 0, 1)) == t


def test_permuted_refuses_a_non_permutation():
    t = Tensor3.from_dense([[[1]]])
    for order in [(0, 0, 1), (0, 1), (1, 2, 3)]:
        with pytest.raises(ValueError, match="not an order"):
            t.permuted(order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_vectors_are_exact(r, c, data):
    rows = data.draw(st.lists(st.lists(rationals, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    m = mat(rows)
    ker = kernel_basis([sp(row) for row in m], c)
    assert rank([sp(row) for row in m], c) + len(ker) == c
    assert [_dense(v, c) for v in ker] == _dense_kernel(m, c)
    for v in ker:
        assert all(x == 0 for x in _mat_vec(m, _dense(v, c)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_inverse_round_trip(n, m, data):
    rows = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    a = mat(rows)
    inv = LinearMap.from_matrix(a).inverse()
    if inv is not None:
        assert _mat_mul(a, inv.matrix) == _identity(n)
        assert _mat_mul(inv.matrix, a) == _identity(n)
    else:
        assert rank([sp(row) for row in a], n) < n


def _row_scan_rref(rows, ncols):
    """A fraction-free elimination of integer rows, kept as the reference:
    every remaining row is scanned for each pivot column, and the shortest
    row holding it, the first on a tie, is the pivot."""
    work = [dict(r) for r in rows if r]
    piv_rows, pivots = [], []
    for col in range(ncols):
        cand = None
        for idx, r in enumerate(work):
            if col in r and (cand is None or len(r) < len(work[cand])):
                cand = idx
        if cand is None:
            continue
        prow = work.pop(cand)
        p = prow[col]
        nxt = []
        for r in work:
            a = r.get(col)
            if a is None:
                nxt.append(r)
                continue
            new = {j: w for j in r.keys() | prow.keys()
                   if (w := r.get(j, 0) * p - prow.get(j, 0) * a)}
            new.pop(col, None)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                nxt.append({j: v // g for j, v in new.items()})
        work = nxt
        piv_rows.append(prow)
        pivots.append(col)
    frac_rows = [{j: qdiv(v, r[pivots[i]]) for j, v in r.items()}
                 for i, r in enumerate(piv_rows)]
    for i in range(len(frac_rows) - 1, -1, -1):
        for k in range(i):
            c = frac_rows[k].get(pivots[i])
            if c is None:
                continue
            for j, v in frac_rows[i].items():
                w = frac_rows[k].get(j, 0) - c * v
                if w:
                    frac_rows[k][j] = w
                else:
                    frac_rows[k].pop(j, None)
    return frac_rows, pivots


@st.composite
def integer_systems(draw):
    """(rows, ncols): sparse integer rows with a few entries each, plus
    combinations of earlier rows, so that fill-in, cancellation and
    dependent rows all occur."""
    ncols = draw(st.integers(1, 24))
    entry = st.tuples(st.integers(0, ncols - 1), st.integers(-3, 3).filter(bool))
    rows = [dict(r) for r in draw(st.lists(st.lists(entry, max_size=5), max_size=24))]
    for a, b, c in draw(st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23),
                                           st.integers(-2, 2)), max_size=4)):
        if rows:
            ra, rb = rows[a % len(rows)], rows[b % len(rows)]
            rows.append({j: w for j in ra.keys() | rb.keys()
                         if (w := ra.get(j, 0) + c * rb.get(j, 0))})
    return rows, ncols


def _assert_reduced_form(got):
    """Keys ascend in every row, leads ascend across rows, and every scalar is
    an int where integral, else a Fraction."""
    assert all(list(r) == sorted(r) for r in got)
    assert [next(iter(r)) for r in got] == sorted(next(iter(r)) for r in got)
    assert all(type(x) is (int if F(x).denominator == 1 else F)
               for r in got for x in r.values())


@settings(max_examples=200, deadline=None)
@given(integer_systems())
def test_echelon_reduced_is_the_row_scan_elimination(system):
    # the same rows with the same pivots and values, keys ascending
    rows, ncols = system
    got = Echelon(rows).reduced()
    ref, ref_pivots = _row_scan_rref(rows, ncols)
    assert [next(iter(r)) for r in got] == ref_pivots
    assert got == ref
    _assert_reduced_form(got)
    dense = [tuple(F(r.get(j, 0)) for j in range(ncols)) for r in rows]
    assert [_dense(r, ncols) for r in got] == _dense_rref(dense, ncols)


@st.composite
def fraction_systems(draw):
    """(rows, ncols): sparse rows of Q^dim with Fraction entries of
    denominator up to 4, explicit zeros among them, and combinations of
    earlier rows; on a drawn flag each row i is tagged with 1 at dim + i, the
    layout of Subspace's [v | I] and of inverse's f(e_c) (+) e_c."""
    dim = draw(st.integers(1, 8))
    scalar = st.just(F(0)) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.tuples(st.integers(0, dim - 1), scalar)
    rows = [dict(r) for r in draw(st.lists(st.lists(entry, max_size=5), max_size=10))]
    for a, b, c in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), scalar),
                                 max_size=3)):
        if rows:
            ra, rb = rows[a % len(rows)], rows[b % len(rows)]
            rows.append({j: ra.get(j, 0) + c * rb.get(j, 0) for j in ra.keys() | rb.keys()})
    if draw(st.booleans()):
        return [{**r, dim + i: F(1)} for i, r in enumerate(rows)], dim + len(rows)
    return rows, dim


@settings(max_examples=200, deadline=None)
@given(fraction_systems())
def test_echelon_reduced_is_the_dense_rref_over_fractions(system):
    rows, ncols = system
    got = Echelon(rows).reduced()
    _assert_reduced_form(got)
    dense = [tuple(F(r.get(j, 0)) for j in range(ncols)) for r in rows]
    assert [_dense(r, ncols) for r in got] == _dense_rref(dense, ncols)


def test_explicit_zeros_are_read_as_absent_entries():
    # a zero at the least index of a row or column is no lead: each of the
    # five public entry points reads the rows as if the zeros were absent
    rows = [{0: 0, 1: F(3), 2: 0}, {0: F(1), 1: F(0), 2: F(2)}, {1: F(0)}]
    clean = [{j: x for j, x in r.items() if x} for r in rows]
    assert rank(rows, 3) == rank(clean, 3) == 2
    assert span_basis(rows, 3) == span_basis(clean, 3) == [{0: 1, 2: 2}, {1: 1}]
    assert kernel_basis(rows, 3) == kernel_basis(clean, 3) == [{0: -2, 2: 1}]
    sub = Subspace(rows, 3)
    assert sub == Subspace(clean, 3) and sub.pivots == (0, 1)
    assert not sub._independent and sub.contains({0: F(2), 1: F(1), 2: F(4)})
    f = LinearMap(2, 2, ({0: 0, 1: F(2)}, {0: F(1), 1: 0}))
    assert f.rank() == 2
    assert f.inverse() == LinearMap(2, 2, ({1: 1}, {0: F(1, 2)}))
    assert LinearMap(2, 2, ({0: 0}, {1: F(1)})).inverse() is None


def test_span_utilities():
    b = span_basis([{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {2: F(1)}], 3)
    assert b == [{0: 1, 1: 1}, {2: 1}]
    assert (Subspace([{0: F(1), 1: F(1)}, {2: F(2)}], 3)
            == Subspace([{0: F(3), 1: F(3)}, {0: F(1), 1: F(1), 2: F(5)}], 3))
    assert Subspace([{0: F(1)}], 3) != Subspace([{1: F(1)}], 3)
    # an index outside the ambient space is refused, as LinearMap refuses it
    for bad in ({3: F(1)}, {-1: F(1)}):
        with pytest.raises(DimensionMismatch):
            span_basis([bad], 3)
        with pytest.raises(DimensionMismatch):
            Subspace([{0: F(1)}, bad], 3)
        with pytest.raises(DimensionMismatch):
            Subspace([{0: F(1)}], 3).contains(bad)


sparse_entries = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2)])


@st.composite
def subspace_cases(draw):
    """(dim, vectors, queries): lists with repeats, zero vectors and
    combinations of earlier vectors, queried with members and non-members."""
    dim = draw(st.integers(1, 5))
    vector = st.lists(sparse_entries, min_size=dim, max_size=dim).map(tuple)
    vs = draw(st.lists(vector, max_size=5))
    extra = draw(st.lists(st.tuples(st.lists(sparse_entries, min_size=len(vs), max_size=len(vs)),
                                    st.booleans()), max_size=2))
    for coeffs, zero in extra:
        vs.append(tuple(F(0) for _ in range(dim)) if zero or not vs
                  else tuple(sum((c * v[i] for c, v in zip(coeffs, vs)), F(0))
                             for i in range(dim)))
    perm = draw(st.permutations(range(len(vs))))
    vs = [vs[i] for i in perm]
    combos = draw(st.lists(st.lists(rationals, min_size=len(vs), max_size=len(vs)), max_size=3))
    queries = [tuple(sum((c * v[i] for c, v in zip(cs, vs)), F(0)) for i in range(dim))
               for cs in combos]
    queries += draw(st.lists(vector, max_size=3))
    ops = draw(st.lists(st.lists(st.lists(sparse_entries, min_size=dim, max_size=dim),
                                 min_size=dim, max_size=dim), max_size=2))
    return dim, vs, queries, [mat(op) for op in ops]


@settings(max_examples=150, deadline=None)
@given(subspace_cases())
def test_subspace_agrees_with_dense_reference(case):
    dim, vs, queries, ops = case
    sub = Subspace([sp(v) for v in vs], dim)
    ref = _dense_rref(vs, dim)
    assert [_dense(v, dim) for v in sub.basis] == ref
    assert span_basis([sp(v) for v in vs], dim) == list(sub.basis)
    assert sub.pivots == _dense_pivots(ref)
    independent = len(ref) == len(vs)
    for v in queries:
        expect = _coords(vs, v, dim)
        assert sub.contains(sp(v)) == (expect is not None)
        if independent:
            got = sub.coords(sp(v))
            assert (None if got is None else _dense(got, len(vs))) == expect
        else:
            with pytest.raises(ValueError, match="linearly dependent"):
                sub.coords(sp(v))
    assert sub == Subspace([sp(v) for v in reversed(vs)] + list(sub.basis), dim)
    other = Subspace([sp(v) for v in queries], dim)
    assert (sub == other) == (ref == _dense_rref(queries, dim))
    # restrict: the matrix of op on span(vs) in the coordinates of vs
    for op in ops:
        images = [_mat_vec(op, v) for v in vs]
        if independent:
            cols = [_coords(vs, w, dim) for w in images]
            got = sub.restrict(LinearMap.from_matrix(op))
            if None in cols:
                assert got is None
            else:
                assert got.matrix == tuple(zip(*cols))
    # kernel_basis and commutant_rows: the vectors as rows, the ops as maps
    assert [_dense(v, dim) for v in kernel_basis([sp(v) for v in vs], dim)] == \
        _dense_kernel(vs, dim)
    if ops:
        comm = kernel_basis(commutant_rows([LinearMap.from_matrix(op) for op in ops], dim),
                            dim * dim)
        assert [_dense(v, dim * dim) for v in comm] == \
            _dense_kernel(_commutant_dense(ops, dim), dim * dim)


def test_subspace_edge_cases():
    empty = Subspace([], 3)
    assert empty.basis == ()
    assert empty.contains({}) and not empty.contains({1: F(1)})
    assert empty.coords({}) == {} and empty.coords({0: F(1)}) is None
    with_zero = Subspace([{0: F(1), 1: F(2)}, {}], 3)
    assert with_zero.basis == ({0: 1, 1: 2},)
    with pytest.raises(ValueError, match="linearly dependent"):
        with_zero.coords({0: F(1), 1: F(2)})
    with pytest.raises(DimensionMismatch):
        empty.contains({3: F(1)})
    line = Subspace([{0: F(1), 1: F(1)}], 2)
    assert line.restrict(LinearMap.from_matrix([[0, 1], [1, 0]])).matrix == ((F(1),),)
    assert line.restrict(LinearMap.from_matrix([[1, 0], [0, 2]])) is None


def _restricted_dense(t, vs, xs, ys, dim):
    """Dense reference for Subspace.restricted on dense vectors: the
    coordinates in vs of each value sum_ij x_i y_j t[i][j], p outer, q inner,
    up to the first value outside span(vs)."""
    d = t.dense()
    u = []
    for p, x in enumerate(xs):
        plane = []
        for q, y in enumerate(ys):
            value = tuple(sum((x[i] * y[j] * d[i][j][k] for i in range(len(x))
                               for j in range(len(y))), F(0)) for k in range(dim))
            c = _coords(vs, value, dim)
            if c is None:
                return None, (p, q)
            plane.append(c)
        u.append(plane)
    return u, None


@pytest.mark.parametrize("seed", range(60))
def test_restricted_agrees_with_dense_reference(seed):
    # a tensor whose cells are combinations of the vectors (closed), with one
    # cell moved out of their span on odd seeds (leaving); operands include a
    # zero vector and e_0 - e_1, whose values vanish where planes 0 and 1 agree
    # (copies of each other when d0 > 2)
    rng = random.Random(seed)
    scalars = (0, 0, 1, -1, 2, F(1, 2))
    dim, d0, d1 = rng.randint(2, 5), rng.randint(2, 4), rng.randint(1, 4)
    vs = []
    while len(vs) < rng.randint(1, dim - 1):
        v = tuple(F(rng.choice(scalars)) for _ in range(dim))
        if len(_dense_rref(vs + [v], dim)) == len(vs) + 1:
            vs.append(v)
    entries = [(i, j, k, sum((rng.choice(scalars) * v[k] for v in vs), F(0)))
               for i in range(d0) for j in range(d1) for k in range(dim)
               if i != 1 or d0 == 2]
    entries += [(1, j, k, c) for i, j, k, c in entries if i == 0 and d0 > 2]
    if seed % 2:
        outside = next(k for k in range(dim) if _coords(vs, _dense({k: 1}, dim), dim) is None)
        entries.append((rng.randrange(d0), rng.randrange(d1), outside, 1))
    t = Tensor3.from_entries((d0, d1, dim), entries)

    def operand(n):
        return tuple(F(rng.choice(scalars)) for _ in range(n))

    xs = [operand(d0) for _ in range(rng.randint(1, 3))] + [(F(0),) * d0]
    xs.insert(rng.randrange(len(xs)), (F(1), F(-1)) + (F(0),) * (d0 - 2))
    ys = [operand(d1) for _ in range(rng.randint(1, 3))]
    got, leaves = Subspace([sp(v) for v in vs], dim).restricted(
        t, [sp(x) for x in xs], [sp(y) for y in ys])
    expect, expect_leaves = _restricted_dense(t, vs, xs, ys, dim)
    assert leaves == expect_leaves
    if expect is None:
        assert got is None
        return
    assert got.dims == (len(xs), len(ys), len(vs))
    assert [[_dense(dict(got.row(p, q)), len(vs)) for q in range(len(ys))]
            for p in range(len(xs))] == expect
    # every stored scalar is nonzero and exact: an int where integral
    assert all(c != 0 and type(c) is type(rat(c))
               for p in range(len(xs)) for q in range(len(ys)) for _, c in got.row(p, q))


def test_restricted_closed_and_leaving_cases():
    # span{e_0} in Q^2: values e_0 stay, e_1 leaves; an empty cell, and a
    # value that cancels, are zero and stay empty
    t = Tensor3.from_row_dicts((3, 2, 2), {(0, 1): {0: F(2)}, (1, 0): {1: 1}, (2, 0): {1: 1},
                                           (1, 1): {0: F(1, 2)}, (2, 1): {0: F(1, 2)}})
    line = Subspace([{0: 2}], 2)
    units = [{0: 1}, {1: 1}]
    u, leaves = line.restricted(t, [{0: 1}, {1: 1, 2: -1}], units)
    assert leaves is None and u.dims == (2, 2, 1)
    assert [[u.row(p, q) for q in range(2)] for p in range(2)] == [[(), ((0, 1),)], [(), ()]]
    assert type(u.entry(0, 1, 0)) is int
    assert line.restricted(t, [{1: 1}], [{1: 1}])[0].row(0, 0) == ((0, F(1, 4)),)
    # the first pair, p outer: (0, 1) before (1, 0), though (1, 0) leaves too
    t2 = Tensor3.from_row_dicts((2, 2, 2), {(0, 1): {1: 1}, (1, 0): {1: 1}})
    assert line.restricted(t2, units, units) == (None, (0, 1))
    assert line.restricted(t2, units[::-1], units) == (None, (0, 0))
    assert line.restricted(t2, [{0: 1}], [{0: 1}])[0].row(0, 0) == ()
    # no operands: an empty tensor of the right shape
    empty, leaves = line.restricted(t2, [], units)
    assert leaves is None and empty.dims == (0, 2, 1)
    # coordinates in dependent vectors are refused, as coords refuses them
    with pytest.raises(ValueError, match="linearly dependent"):
        Subspace([{0: 1}, {0: 2}], 2).restricted(t2, units, units)


def test_linear_map_equality_reads_the_matrix():
    # an explicit zero in a column changes neither equality, hash nor is_identity
    with_zero = LinearMap(2, 2, ({0: 0, 1: 2}, {0: 1}))
    plain = LinearMap(2, 2, ({1: 2}, {0: 1}))
    assert with_zero == plain and hash(with_zero) == hash(plain)
    assert with_zero != LinearMap(2, 2, ({1: 2}, {0: 2}))
    assert with_zero != LinearMap(2, 3, ({1: 2}, {0: 1}))
    assert LinearMap(2, 2, ({0: 1, 1: 0}, {1: 1})).is_identity()
    assert not LinearMap(2, 2, ({0: 1, 1: 0}, {0: 1})).is_identity()
    assert not LinearMap(2, 3, ({0: 1}, {1: 1})).is_identity()


def test_split_into_eigenspaces():
    # diag(1, 1, 3) conjugated by a unipotent P: eigenspaces span{P e_0, P e_1}
    # and span{P e_2}; a second operator separates the first plane
    p = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    p_inv = LinearMap.from_matrix(p).inverse().matrix
    op1 = LinearMap.from_matrix(_mat_mul(_mat_mul(p, mat([[1, 0, 0], [0, 1, 0], [0, 0, 3]])),
                                         p_inv))
    op2 = LinearMap.from_matrix(_mat_mul(_mat_mul(p, mat([[0, 0, 0], [0, 5, 0], [0, 0, 0]])),
                                         p_inv))
    cols = [sp(col) for col in zip(*p)]
    blocks, fully_split = split([op1], 3)
    assert fully_split
    assert blocks == [span_basis(cols[:2], 3), span_basis(cols[2:], 3)]
    blocks, fully_split = split([op1, op2], 3)
    assert fully_split
    assert blocks == [span_basis([cols[0]], 3), span_basis([cols[1]], 3),
                      span_basis([cols[2]], 3)]
    # x^2 + 1 has no rational root; a Jordan block is not diagonalisable
    for op in (mat([[0, -1], [1, 0]]), mat([[2, 1], [0, 2]])):
        blocks, fully_split = split([LinearMap.from_matrix(op)], 2)
        assert not fully_split and blocks == [[{0: 1}, {1: 1}]]


def test_tensor_elem_accumulates_and_drops_zeros():
    t = TensorElem.from_entries((2, 3), [((1, 2), 1), ((0, 1), "1/2"), ((1, 2), F(1, 2)),
                                         ((0, 0), 0)])
    assert t.terms == {(0, 1): F(1, 2), (1, 2): F(3, 2)}
    assert all(type(c) is F for c in t.terms.values())


def test_tensor_elem_cancellation_leaves_no_terms():
    t = TensorElem.from_entries((2, 2), [((0, 1), 3), ((1, 1), 0), ((0, 1), -3)])
    assert t.terms == {}
    assert t == TensorElem.from_entries((2, 2), [])
    assert t != TensorElem.from_entries((2, 3), [])


def test_tensor_elem_equality_ignores_entry_order():
    entries = [((1, 0), 2), ((0, 1), -1), ((1, 1), F(1, 3))]
    a = TensorElem.from_entries((2, 2), entries)
    b = TensorElem.from_entries((2, 2), reversed(entries))
    assert a == b and hash(a) == hash(b)
    assert a != TensorElem.from_entries((2, 2), entries[:2])


def test_tensor_elem_terms_are_row_major():
    t = TensorElem.from_entries((3, 3), [((2, 0), 1), ((0, 2), 2), ((1, 1), 3), ((0, 0), 4)])
    assert list(t.terms) == [(0, 0), (0, 2), (1, 1), (2, 0)]
    assert list(t.items()) == list(t.terms.items())


def test_tensor_elem_flip_swaps_legs():
    t = TensorElem.from_entries((2, 3), [((1, 2), 5), ((0, 1), 7), ((1, 0), -1)])
    s = t.flip()
    assert s.dims == (3, 2)
    assert s.terms == {(0, 1): -1, (1, 0): 7, (2, 1): 5}
    assert list(s.terms) == sorted(s.terms)
    assert s.flip() == t


@pytest.mark.parametrize("build", [
    lambda: TensorElem.from_entries((2, 2), [((0, 2), 1)]),
    lambda: TensorElem.from_entries((2, 2), [((2, 0), 1)]),
    lambda: TensorElem.from_entries((2, 2), [((-1, 0), 1)]),
    lambda: TensorElem.from_entries((2, 2), [((0, 2), 1), ((0, 2), -1)]),
    lambda: Tensor3.from_entries((2, 2, 2), [(2, 0, 0, 1)]),
    lambda: Tensor3.from_entries((2, 2, 2), [(0, 0, 5, 1)]),
    lambda: Tensor3.from_entries((2, 2, 2), [(0, -1, 0, 1)]),
    lambda: Tensor3.from_entries((2, 2, 2), [(0, 0, 2, 1), (0, 0, 1, 1), (0, 0, 2, -1)]),
    lambda: TensorElem.from_entries((2, 2), [((5, 0), 0)]),
    lambda: Tensor3.from_entries((2, 2, 2), [(5, 0, 0, 0)]),
    lambda: Tensor3.from_entries((2, 2, 2), [(0, 0, 0, 1), (0, 0, 7, F(0))]),
], ids=["elem-column", "elem-row", "elem-negative", "elem-cancelled",
        "t3-first", "t3-last", "t3-negative", "t3-cancelled",
        "elem-zero", "t3-zero", "t3-zero-in-a-filled-cell"])
def test_from_entries_refuses_an_index_outside_dims(build):
    with pytest.raises(DimensionMismatch, match="outside"):
        build()


@pytest.mark.parametrize("seed", range(4))
def test_from_entries_is_from_dense_of_the_accumulated_entries(seed):
    # shuffled entries with repeats against the dense sums; the repeats in
    # cell (2, 3) cancel, and it reads () like the cells with no entry
    rng = random.Random(seed)
    dense = [[[0] * 5 for _ in range(4)] for _ in range(3)]
    entries = [(2, 3, 4, F(1, 2)), (2, 3, 1, 3), (2, 3, 4, F(-1, 2)), (2, 3, 1, -3)]
    for _ in range(60):
        i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(5)
        v = rng.choice((-2, -1, F(1, 2), 1, 0))
        reps = rng.choice((1, 2))
        entries += [(i, j, k, v)] * reps
        dense[i][j][k] += reps * v
    rng.shuffle(entries)
    t = Tensor3.from_entries((3, 4, 5), entries)
    assert t == Tensor3.from_dense(dense)
    assert t.row(2, 3) == ()
    assert all(cell == tuple(sorted(cell)) for plane in t._rows for cell in plane)


@pytest.mark.parametrize("seed", range(6))
def test_sorted_cell_is_the_expression_it_replaces(seed):
    # ints, Fractions, integral Fractions, zeros and pairs that cancel, in
    # empty, one-entry and larger accumulators; values and scalar types agree
    rng = random.Random(seed)
    scalars = (0, 1, -2, 5, F(1, 2), F(-2, 3), F(4, 2), F(-6, 3), F(0))
    cells = [{}, {3: 0}, {3: F(0)}, {0: 7}, {4: F(6, 3)}, {2: F(1, 3)}]
    for _ in range(200):
        acc: dict = {}
        for _ in range(rng.choice((1, 1, 2, 4, 9))):
            k, v = rng.randrange(12), rng.choice(scalars)
            acc[k] = acc.get(k, 0) + v
            if rng.random() < 0.2:
                acc[k] -= v
        cells.append(acc)
    for acc in cells:
        ref = tuple(sorted((k, rat(v)) for k, v in acc.items() if v))
        got = sorted_cell(acc)
        assert type(got) is tuple and got == ref, acc
        assert [type(v) for _, v in got] == [type(v) for _, v in ref], acc
    with pytest.raises(TypeError):
        sorted_cell({0: 1.5})
    with pytest.raises(TypeError):
        sorted_cell({0: True, 1: 2})


def test_from_entries_gives_an_int_for_an_integral_sum():
    # a repeated 1/2 adds up to the int 1, as every integral scalar is an int
    t = Tensor3.from_entries((1, 1, 1), [(0, 0, 0, F(1, 2)), (0, 0, 0, F(1, 2))])
    elem = TensorElem.from_entries((1, 1), [((0, 0), F(1, 2)), ((0, 0), F(1, 2))])
    assert t.row(0, 0) == ((0, 1),) and type(t.row(0, 0)[0][1]) is int
    assert elem.terms == {(0, 0): 1} and type(elem.terms[(0, 0)]) is int


def test_from_row_dicts_is_from_entries():
    cells = {(0, 1): {2: 3, 0: F(1, 2), 1: 0}, (1, 0): {}, (1, 1): {1: "2/4"}}
    t = Tensor3.from_row_dicts((2, 2, 3), cells)
    assert t == Tensor3.from_entries((2, 2, 3), [(0, 1, 2, 3), (0, 1, 0, F(1, 2)),
                                                 (1, 1, 1, F(1, 2))])
    assert t.row(0, 1) == ((0, F(1, 2)), (2, 3))
    assert t.row(0, 0) == () == t.row(1, 0)


@pytest.mark.parametrize("cells", [{(2, 0): {0: 1}}, {(0, 2): {0: 1}}, {(0, 0): {2: 1}},
                                   {(0, -1): {0: 1}}],
                         ids=["first", "second", "last", "negative"])
def test_from_row_dicts_refuses_an_index_outside_dims(cells):
    with pytest.raises(DimensionMismatch, match="outside"):
        Tensor3.from_row_dicts((2, 2, 2), cells)


def _typed_cells(t):
    """The cells of t with the type of each scalar, which == ignores."""
    return [[tuple((k, c, type(c)) for k, c in cell) for cell in plane] for plane in t._rows]


def _kron_reference(t, u):
    """The outer product from the dense formula
    w[i n0 + i'][j n1 + j'][k n2 + k'] = t[i][j][k] u[i'][j'][k'], read into
    from_entries."""
    (d0, d1, d2), (n0, n1, n2) = t.dims, u.dims
    dt, du = t.dense(), u.dense()
    return Tensor3.from_entries(
        (d0 * n0, d1 * n1, d2 * n2),
        ((i * n0 + i2, j * n1 + j2, k * n2 + k2, dt[i][j][k] * du[i2][j2][k2])
         for i in range(d0) for j in range(d1) for k in range(d2)
         for i2 in range(n0) for j2 in range(n1) for k2 in range(n2)))


def _random_tensor(rng, dims):
    # Fractions whose products may be integral, zero entries, and pairs that
    # cancel, so that some filled cells come out empty
    scalars = (0, 1, -1, 2, 3, F(1, 2), F(-2, 3), F(3, 2))
    entries = []
    for _ in range(rng.randrange(2 * dims[0] * dims[1] * dims[2] + 1)):
        i, j, k = (rng.randrange(d) for d in dims)
        v = rng.choice(scalars)
        entries.append((i, j, k, v))
        if rng.random() < 0.2:
            entries.append((i, j, k, -v))
    return Tensor3.from_entries(dims, entries)


@pytest.mark.parametrize("seed", range(8))
def test_kron_matches_the_dense_formula(seed):
    # non-square and mismatched dims, empty tensors and one-entry tensors
    rng = random.Random(seed)
    shapes = [(2, 3, 2), (3, 2, 4), (1, 1, 1), (2, 2, 2), (1, 3, 3), (0, 2, 2), (2, 0, 3),
              (3, 3, 0)]
    filled = 0
    for _ in range(12):
        t = _random_tensor(rng, rng.choice(shapes))
        u = _random_tensor(rng, rng.choice(shapes))
        w, ref = t.kron(u), _kron_reference(t, u)
        assert w.dims == ref.dims
        assert _typed_cells(w) == _typed_cells(ref)
        filled += any(map(any, w._rows))
    assert filled >= 2
    half = Tensor3.from_entries((1, 1, 1), [(0, 0, 0, F(1, 2))])
    two = Tensor3.from_entries((1, 1, 1), [(0, 0, 0, 2)])
    assert half.kron(two).row(0, 0) == ((0, 1),) and type(half.kron(two).row(0, 0)[0][1]) is int
    empty = Tensor3.from_entries((2, 2, 2), [(0, 0, 0, F(1, 2)), (0, 0, 0, F(-1, 2))])
    assert _typed_cells(empty.kron(two)) == _typed_cells(Tensor3.from_entries((2, 2, 2), []))
