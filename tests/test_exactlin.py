from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmash.exactlin import (
    DimensionMismatch,
    Subspace,
    Tensor3,
    TensorElem,
    _poly_gcd,
    basis_vec,
    identity_mat,
    kernel_basis,
    mat,
    mat_inverse,
    mat_mul,
    mat_vec,
    rank,
    rat,
    rat_str,
    solve,
    span_basis,
    split,
    transpose,
    vec,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_rat_string_roundtrip():
    assert rat("3/2") == F(3, 2)
    assert rat("-7") == F(-7)
    assert rat_str(F(3, 2)) == "3/2"
    assert rat_str(F(5)) == "5"
    with pytest.raises(TypeError):
        rat(1.5)


def test_rat_refuses_inexact_and_ill_formed_scalars():
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("one")


def test_poly_gcd_is_monic():
    # (x - 1)(x - 2) and (2x - 4)(x + 3) share x - 2
    assert _poly_gcd([2, -3, 1], [-12, 2, 2]) == [-2, 1]
    assert _poly_gcd([1, 0, 1], [0, 1]) == [1]
    assert _poly_gcd([0, 0, 3], [0]) == [0, 0, 1]


def test_kernel_examples():
    assert kernel_basis(identity_mat(2)) == []
    k = kernel_basis(mat([[1, 1], [1, 1]]))
    assert len(k) == 1 and k[0][0] == -k[0][1] != 0
    assert len(kernel_basis(mat([[0] * 3] * 3))) == 3


def test_solve_examples():
    assert solve(mat([[2]]), vec([3])) == (F(3, 2),)
    b = vec([4, -1, 7])
    assert solve(identity_mat(3), b) == b
    assert solve(mat([[1], [1]]), vec([1, 2])) is None
    with pytest.raises(DimensionMismatch):
        solve(mat([[1, 2]]), vec([1, 2]))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_solve_recovers_vector_when_injective(n, data):
    rows = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                              min_size=n, max_size=n + 2))
    m = mat(rows)
    if rank(m) < n:
        return
    x = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    assert solve(m, mat_vec(m, x)) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_vectors_are_exact(r, c, data):
    rows = data.draw(st.lists(st.lists(rationals, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    m = mat(rows)
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == c
    for v in ker:
        assert all(x == 0 for x in mat_vec(m, v))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_inverse_round_trip(n, m, data):
    rows = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    a = mat(rows)
    inv = mat_inverse(a)
    if inv is not None:
        assert mat_mul(a, inv) == identity_mat(n)
        assert mat_mul(inv, a) == identity_mat(n)
    else:
        assert rank(a) < n


def test_span_utilities():
    b = span_basis([vec([1, 1, 0]), vec([2, 2, 0]), vec([0, 0, 1])], 3)
    assert len(b) == 2
    assert (Subspace([vec([1, 1, 0]), vec([0, 0, 2])], 3)
            == Subspace([vec([3, 3, 0]), vec([1, 1, 5])], 3))
    assert Subspace([vec([1, 0, 0])], 3) != Subspace([vec([0, 1, 0])], 3)


def _dense_rref(vs, dim):
    """Reference: textbook Gauss-Jordan on dense rows, nonzero rows only."""
    rows = [list(v) for v in vs]
    out, r = [], 0
    for c in range(dim):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


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
    return dim, vs, queries


@settings(max_examples=150, deadline=None)
@given(subspace_cases())
def test_subspace_agrees_with_dense_reference(case):
    dim, vs, queries = case
    sub = Subspace(vs, dim)
    ref = _dense_rref(vs, dim)
    assert list(sub.basis) == ref == span_basis(vs, dim)
    independent = len(ref) == len(vs)
    for v in queries:
        expect = solve(transpose(tuple(vs)), v) if vs else (() if not any(v) else None)
        assert sub.contains(v) == (expect is not None)
        if independent:
            assert sub.coords(v) == expect
        else:
            with pytest.raises(ValueError, match="linearly dependent"):
                sub.coords(v)
    assert sub == Subspace(list(reversed(vs)) + ref, dim)
    other = Subspace(queries, dim)
    assert (sub == other) == (ref == _dense_rref(queries, dim))


def test_subspace_edge_cases():
    empty = Subspace([], 3)
    assert empty.basis == ()
    assert empty.contains(vec([0, 0, 0])) and not empty.contains(vec([0, 1, 0]))
    assert empty.coords(vec([0, 0, 0])) == () and empty.coords(vec([1, 0, 0])) is None
    with_zero = Subspace([vec([1, 2, 0]), vec([0, 0, 0])], 3)
    assert with_zero.basis == (vec([1, 2, 0]),)
    with pytest.raises(ValueError, match="linearly dependent"):
        with_zero.coords(vec([1, 2, 0]))
    with pytest.raises(DimensionMismatch):
        empty.contains(vec([0, 0]))
    line = Subspace([vec([1, 1])], 2)
    assert line.restrict(mat([[0, 1], [1, 0]])) == ((F(1),),)
    assert line.restrict(mat([[1, 0], [0, 2]])) is None


def test_split_into_eigenspaces():
    # diag(1, 1, 3) conjugated by a unipotent P: eigenspaces span{P e_0, P e_1}
    # and span{P e_2}; a second operator separates the first plane
    p = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    p_inv = mat_inverse(p)
    op1 = mat_mul(mat_mul(p, mat([[1, 0, 0], [0, 1, 0], [0, 0, 3]])), p_inv)
    op2 = mat_mul(mat_mul(p, mat([[0, 0, 0], [0, 5, 0], [0, 0, 0]])), p_inv)
    cols = transpose(p)
    blocks, fully_split = split([op1], 3)
    assert fully_split
    assert blocks == [span_basis(cols[:2], 3), span_basis(cols[2:], 3)]
    blocks, fully_split = split([op1, op2], 3)
    assert fully_split
    assert blocks == [span_basis([cols[0]], 3), span_basis([cols[1]], 3),
                      span_basis([cols[2]], 3)]
    # x^2 + 1 has no rational root; a Jordan block is not diagonalisable
    for op in (mat([[0, -1], [1, 0]]), mat([[2, 1], [0, 2]])):
        blocks, fully_split = split([op], 2)
        assert not fully_split and blocks == [[basis_vec(2, 0), basis_vec(2, 1)]]


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
], ids=["elem-column", "elem-row", "elem-negative", "elem-cancelled",
        "t3-first", "t3-last", "t3-negative"])
def test_from_entries_refuses_an_index_outside_dims(build):
    with pytest.raises(DimensionMismatch, match="outside"):
        build()
