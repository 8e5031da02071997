"""The support-indexed products of tensor powers against the loops they
replaced.

`tensor_mul_sparse` forms a pair of terms only where the first legs' cell is
nonempty.  `padded_product`, the one kernel of the hexagon sides and of the
weak unit sides, pairs a term of x only with the terms of y whose cell on
the shared leg is nonempty, and pads the free legs with the cached z 1 and
1 z of `StructureAlgebra.unit_products`; `comult_leg` applies Delta on one
leg.  The all-pairs loops are kept here as references, forming z 1 and 1 z
themselves, and the kernels must give the same keys, values and scalar
types (an integral value as an int) on the R-matrices of D(kZ2), D(kS3) and
B, on Delta(1) of k^2 # kZ2, k^3 # kS3 and B, and on seeded operands: 0, 1
and many terms, two legs over one algebra or two, every placement of two
pairs of legs out of three that share one, cancelling terms, running sums
that pass through 0 and non-unital product tensors.  `padded_product`,
`comult_leg` and `Tensor3.plane` are also read against `dense()`.
`tensor_mul_sparse` multiplies in A (x) B only; the reference takes any
number of legs.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import LinearMap, Tensor3
from hopfsmash.hopfcore import (
    StructureAlgebra,
    StructureCoalgebra,
    comult_leg,
    hexagon_sides,
    padded_product,
    tensor_mul_sparse,
)
from hopfsmash.modalg import separability
from hopfsmash.qtriang import trivial_qt
from hopfsmash.smashcons import smash_algebra, smash_weak_structure
from hopfsmash.weakhopf import WeakHopfData, unit_weak_comult_sides

# ---------------------------------------------------------------------------
# references: every pair of terms
# ---------------------------------------------------------------------------


def _add(acc, key, c):
    w = acc.get(key, 0) + c
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _tensor_mul_reference(algs, u, v, add=_add):
    """The product in A_1 (x) ... (x) A_m over every pair of terms, each term
    summed by add."""
    out = {}
    tabs = [alg.mult._rows for alg in algs]
    for ka, ca in u.items():
        for kb, cb in v.items():
            legs = [tab[ia][ib] for tab, ia, ib in zip(tabs, ka, kb)]
            if all(legs):
                terms = [((), ca * cb)]
                for row in legs:
                    terms = [(key + (k,), c * w) for key, c in terms for k, w in row]
                for key, c in terms:
                    add(out, key, c)
    return out


def _outer3(add, acc, c, u, v, w):
    for i, ci in u:
        for j, cj in v:
            for k, ck in w:
                add(acc, (i, j, k), c * ci * cj * ck)


def _unit_products_reference(alg):
    """(z 1, 1 z) for every index z, as lists of (index, coefficient): each
    nonzero term of the unit multiplied in turn."""
    rows = alg.mult._rows
    times_one, one_times = [], []
    for z in range(alg.dim):
        right, left = {}, {}
        for u, cu in enumerate(alg.unit):
            if cu:
                for k, w in rows[z][u]:
                    _add(right, k, cu * w)
                for k, w in rows[u][z]:
                    _add(left, k, cu * w)
        times_one.append(list(right.items()))
        one_times.append(list(left.items()))
    return times_one, one_times


def _hexagon_reference(alg, coal, r, add=_add):
    times_one, one_times = _unit_products_reference(alg)
    d_id, id_d, r13r23, r13r12 = {}, {}, {}, {}
    for (a, b), c in r.items():
        for j, k, w in coal.comul_row(a):
            add(d_id, (j, k, b), c * w)
        for j, k, w in coal.comul_row(b):
            add(id_d, (a, j, k), c * w)
        for (x, y), cxy in r.items():
            _outer3(add, r13r23, c * cxy, times_one[a], one_times[x], alg.mul_row(b, y))
            _outer3(add, r13r12, c * cxy, alg.mul_row(a, x), one_times[y], times_one[b])
    return d_id, r13r23, id_d, r13r12


def _unit_weak_reference(w, add=_add):
    """(Delta (x) id) Delta(1) and both orders of the weak unit products over
    every pair of terms of Delta(1)."""
    alg, d1 = w.algebra, w.delta_one
    times_one, one_times = _unit_products_reference(alg)
    lhs, order1, order2 = {}, {}, {}
    for (a, b), c in d1.items():
        for p, q, cw in w.coalgebra.comul_row(a):
            add(lhs, (p, q, b), c * cw)
        for (a2, b2), c2 in d1.items():
            _outer3(add, order1, c * c2, times_one[a], alg.mul_row(b, a2), one_times[b2])
            _outer3(add, order2, c * c2, one_times[a2], alg.mul_row(a, b2), times_one[b])
    return lhs, order1, order2


def _typed(d):
    """(key, value, scalar type) of each entry of d, an integral value as an
    int, sorted by key."""
    out = []
    for k, v in sorted(d.items()):
        v = int(v) if F(v).denominator == 1 else v
        out.append((k, v, type(v)))
    return out


def _same(got, want):
    assert got == want
    assert [(k, v, type(v)) for k, v in sorted(got.items())] == _typed(want)


# ---------------------------------------------------------------------------
# the R-matrices the verifiers multiply
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def r_worlds(double_z2, double_s3, b54):
    """(algebra, coalgebra, R, Rbar) for D(kZ2), D(kS3) and B's weak R."""
    return {"D(kZ2)": (double_z2[0].algebra, double_z2[0].coalgebra,
                       double_z2[1].R.terms, double_z2[1].Rinv.terms),
            "D(kS3)": (double_s3[0].algebra, double_s3[0].coalgebra,
                       double_s3[1].R.terms, double_s3[1].Rinv.terms),
            "B": (b54.wha.algebra, b54.wha.coalgebra, b54.rqt.Rw.terms, b54.rqt.Rw_bar.terms)}


@pytest.mark.parametrize("world", ["D(kZ2)", "D(kS3)", "B"])
def test_r_products_match_the_all_pairs_loop(r_worlds, world):
    alg, coal, r, rbar = r_worlds[world]
    algs2 = (alg, alg)
    r21 = {(b, a): c for (a, b), c in r.items()}
    pairs = [(rbar, r), (r, rbar), (r21, r)]
    for i in range(alg.dim):
        dlt = {(a, b): c for a, b, c in coal.comul_row(i)}
        cop = {(b, a): c for a, b, c in coal.comul_row(i)}
        pairs += [(r, dlt), (cop, r)]
    for u, v in pairs:
        _same(tensor_mul_sparse(algs2, u, v), _tensor_mul_reference(algs2, u, v))


@pytest.mark.parametrize("world", ["D(kZ2)", "D(kS3)", "B"])
def test_hexagon_sides_match_the_all_pairs_loop(r_worlds, world):
    alg, coal, r, rbar = r_worlds[world]
    for x in (r, rbar):
        for got, want in zip(hexagon_sides(alg, coal, x), _hexagon_reference(alg, coal, x)):
            _same(got, want)


@pytest.mark.parametrize("world", ["k^2 # kZ2", "k^3 # kS3", "B"])
def test_unit_weak_sides_match_the_all_pairs_loop(kz2, sws18, b54, world):
    if world == "k^2 # kZ2":
        m = dm.k2_module_algebra_over_z2(kz2)
        w = smash_weak_structure(smash_algebra(m), trivial_qt(kz2), separability(m)).wha
    else:
        w = sws18.wha if world == "k^3 # kS3" else b54.wha
    for got, want in zip(unit_weak_comult_sides(w), _unit_weak_reference(w)):
        _same(got, want)


# ---------------------------------------------------------------------------
# seeded operands
# ---------------------------------------------------------------------------

COEFFS = (1, -1, 2, F(1, 2), F(-3, 2))


def _random_algebra(rng, n, density, twin_rows=False):
    """A structure algebra on a seeded sparse product, unit zero (so not
    unital); with twin_rows, e_0 e_j = e_1 e_j for every j."""
    entries = [(i, j, k, rng.choice(COEFFS)) for i in range(n) for j in range(n)
               for k in range(n) if rng.random() < density]
    if twin_rows:
        entries = [e for e in entries if e[0] != 1]
        entries += [(1, j, k, c) for i, j, k, c in entries if i == 0]
    return StructureAlgebra(n, Tensor3.from_entries((n, n, n), entries), (0,) * n)


def _random_element(rng, dims, size):
    return {tuple(rng.randrange(d) for d in dims): rng.choice(COEFFS) for _ in range(size)}


@pytest.mark.parametrize("seed", range(40))
def test_seeded_products_match_the_all_pairs_loop(seed):
    rng = random.Random(seed)
    a = _random_algebra(rng, rng.randint(2, 6), rng.choice((0.05, 0.2, 0.5)))
    b = _random_algebra(rng, rng.randint(2, 6), rng.choice((0.05, 0.2, 0.5)))
    for algs in ((a, a), (a, b), (b, a), (b, b)):
        dims = [alg.dim for alg in algs]
        for su in (0, 1, 3, 30):
            for sv in (0, 1, 3, 30):
                u, v = _random_element(rng, dims, su), _random_element(rng, dims, sv)
                _same(tensor_mul_sparse(algs, u, v), _tensor_mul_reference(algs, u, v))


@pytest.mark.parametrize("seed", range(10))
def test_cancelling_terms_match_the_all_pairs_loop(seed):
    # rows 0 and 1 of the product agree, so (e_0 - e_1) (x) e_y times anything
    # is zero: the terms formed cancel, and the keys they touched must go
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    alg = _random_algebra(rng, n, 0.4, twin_rows=True)
    algs2 = (alg, alg)
    y = rng.randrange(n)
    cancel = {(0, y): 1, (1, y): -1}
    v = _random_element(rng, (n, n), 12)
    assert _tensor_mul_reference(algs2, cancel, v) == {}
    _same(tensor_mul_sparse(algs2, cancel, v), {})
    u = {**_random_element(rng, (n, n), 8), **cancel}
    _same(tensor_mul_sparse(algs2, u, v), _tensor_mul_reference(algs2, u, v))


@pytest.mark.parametrize("seed", range(20))
def test_seeded_hexagon_sides_match_the_all_pairs_loop(seed):
    # a seeded product, its unit vector seeded too (so mostly not unital),
    # a seeded coproduct and a seeded R
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    prod = _random_algebra(rng, n, rng.choice((0.1, 0.3)))
    alg = StructureAlgebra(n, prod.mult, tuple(rng.choice((0, 0, 1, -1)) for _ in range(n)))
    coal = StructureCoalgebra(n, _random_algebra(rng, n, 0.2).mult, (1,) * n)
    for size in (0, 1, 3, 12):
        r = _random_element(rng, (n, n), size)
        for got, want in zip(hexagon_sides(alg, coal, r), _hexagon_reference(alg, coal, r)):
            _same(got, want)



@pytest.mark.parametrize("seed", range(12))
def test_unit_products_are_the_sums_over_every_unit_term(seed):
    # z 1 and 1 z over every term of a seeded unit of several terms, empty
    # cells included: the same entries, raw scalar types and order of first
    # arrival as summing each term in turn
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    unit = tuple(rng.choice(COEFFS) if rng.random() < 0.6 else 0 for _ in range(n))
    alg = StructureAlgebra(n, _random_algebra(rng, n, rng.choice((0.1, 0.4))).mult, unit)
    times_one, one_times = alg.unit_products
    rows = alg.mult._rows
    for z in range(n):
        right, left = {}, {}
        for u, cu in ((u, cu) for u, cu in enumerate(unit) if cu):
            for k, w in rows[z][u]:
                _add(right, k, cu * w)
            for k, w in rows[u][z]:
                _add(left, k, cu * w)
        for got, want in ((times_one[z], right), (one_times[z], left)):
            assert got == tuple(want.items())
            assert [type(c) for _, c in got] == list(map(type, want.values()))


# every ordered placement of two pairs of legs out of three that share one
# leg: the six placements of the two pairs, each pair in either order
PLACEMENTS = [(xl, yl) for xl in itertools.permutations(range(3), 2)
              for yl in itertools.permutations(range(3), 2) if len({*xl} & {*yl}) == 1]


def _dense_product(t, a, b):
    """a b for sparse a, b, read off the dense tensor t."""
    n = len(t)
    out = {k: sum(ca * cb * t[i][j][k] for i, ca in a.items() for j, cb in b.items())
           for k in range(n)}
    return {k: c for k, c in out.items() if c}


def _padded_reference(alg, x, x_legs, y, y_legs):
    """x^{x_legs} y^{y_legs} over every pair of terms, read off the dense
    tensor: each leg is the product of the two factors there, a free leg of
    either factor holding the unit vector."""
    t, n = alg.mult.dense(), alg.dim
    one = {u: c for u, c in enumerate(alg.unit) if c}
    basis = [{i: 1} for i in range(n)] + [one]    # index n: the unit
    prod = [[_dense_product(t, a, b) for b in basis] for a in basis]
    out = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            fx, fy = [n] * 3, [n] * 3
            for leg, i in zip(x_legs, kx):
                fx[leg] = i
            for leg, i in zip(y_legs, ky):
                fy[leg] = i
            terms = [((), cx * cy)]
            for a, b in zip(fx, fy):
                terms = [(key + (k,), c * w) for key, c in terms for k, w in prod[a][b].items()]
            for key, c in terms:
                _add(out, key, c)
    return out


def test_the_placements_are_the_six_pairs_each_in_both_orders():
    assert len(PLACEMENTS) == 24
    assert len({(frozenset(xl), frozenset(yl)) for xl, yl in PLACEMENTS}) == 6


@pytest.mark.parametrize("seed", range(12))
def test_padded_product_matches_the_dense_all_pairs_product(seed):
    # seeded non-unital products (the unit seeded too), operands of 0, 1 and
    # many terms with Fraction constants, on every placement
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    unit = tuple(rng.choice((0, 0) + COEFFS) for _ in range(n))
    alg = StructureAlgebra(n, _random_algebra(rng, n, rng.choice((0.1, 0.3, 0.6))).mult, unit)
    for x_legs, y_legs in PLACEMENTS:
        for sx, sy in ((0, 3), (3, 0), (1, 1), (1, 8), (8, 1), (10, 10)):
            x, y = _random_element(rng, (n, n), sx), _random_element(rng, (n, n), sy)
            _same(padded_product(alg, x, x_legs, y, y_legs),
                  _padded_reference(alg, x, x_legs, y, y_legs))


@pytest.mark.parametrize("seed", range(6))
def test_padded_product_drops_cancelling_terms(seed):
    # rows 0 and 1 of the product agree, so on the shared leg e_0 - e_1 as
    # the left factor times anything is zero: every term formed cancels
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    prod = _random_algebra(rng, n, 0.5, twin_rows=True)
    alg = StructureAlgebra(n, prod.mult, tuple(rng.choice((1, F(1, 2), -1)) for _ in range(n)))
    for x_legs, y_legs in PLACEMENTS:
        xs = x_legs.index(({*x_legs} & {*y_legs}).pop())
        z = rng.randrange(n)
        cancel = {(0, z) if xs == 0 else (z, 0): F(3, 2), (1, z) if xs == 0 else (z, 1): F(-3, 2)}
        y = _random_element(rng, (n, n), 10)
        assert _padded_reference(alg, cancel, x_legs, y, y_legs) == {}
        _same(padded_product(alg, cancel, x_legs, y, y_legs), {})
        x = {**_random_element(rng, (n, n), 6), **cancel}
        _same(padded_product(alg, x, x_legs, y, y_legs),
              _padded_reference(alg, x, x_legs, y, y_legs))


def test_padded_product_refuses_placements_that_do_not_share_one_leg():
    alg = _random_algebra(random.Random(1), 3, 0.5)
    x = {(0, 1): 1}
    for x_legs, y_legs in (((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (1, 2)),
                           ((0, 1), (1, 3)), ((0, 1, 2), (1, 2)), ((0,), (1, 2))):
        with pytest.raises(ValueError, match="share exactly one"):
            padded_product(alg, x, x_legs, x, y_legs)


@pytest.mark.parametrize("seed", range(10))
def test_comult_leg_matches_the_dense_coproduct(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    coal = StructureCoalgebra(n, _random_algebra(rng, n, rng.choice((0.1, 0.4))).mult, (1,) * n)
    d = coal.comult.dense()
    for size in (0, 1, 3, 15):
        x = _random_element(rng, (n, n), size)
        on_first, on_second = {}, {}
        for (a, b), c in x.items():
            for j in range(n):
                for k in range(n):
                    _add(on_first, (j, k, b), c * d[a][j][k])
                    _add(on_second, (a, j, k), c * d[b][j][k])
        _same(comult_leg(coal, x, 0), on_first)
        _same(comult_leg(coal, x, 1), on_second)
    for leg in (-1, 2):
        with pytest.raises(ValueError, match="leg 0 or 1"):
            comult_leg(coal, {(0, 0): 1}, leg)


@pytest.mark.parametrize("seed", range(10))
def test_plane_is_the_dense_plane(seed):
    # planes of a tensor of three different dims, and along another leg
    # through permuted: column j of plane i is the cell (i, j)
    rng = random.Random(seed)
    dims = rng.sample(range(1, 7), 3)
    t = Tensor3.from_entries(dims, [(i, j, k, rng.choice(COEFFS)) for i in range(dims[0])
                                    for j in range(dims[1]) for k in range(dims[2])
                                    if rng.random() < 0.3])
    d = t.dense()
    for i in range(dims[0]):
        f = t.plane(i)
        assert (f.source_dim, f.target_dim) == (dims[1], dims[2])
        assert f.matrix == tuple(tuple(d[i][j][k] for j in range(dims[1]))
                                 for k in range(dims[2]))
    for j in range(dims[1]):
        assert t.permuted((1, 0, 2)).plane(j).matrix == tuple(
            tuple(d[i][j][k] for i in range(dims[0])) for k in range(dims[2]))


def test_tensor_mul_sparse_refuses_other_than_two_legs():
    rng = random.Random(5)
    a = _random_algebra(rng, 3, 0.5)
    for algs in ((), (a,), (a, a, a), (a, a, a, a)):
        dims = [alg.dim for alg in algs]
        for size in (0, 4):
            u, v = _random_element(rng, dims, size), _random_element(rng, dims, size)
            with pytest.raises(ValueError, match="A \\(x\\) B"):
                tensor_mul_sparse(algs, u, v)


# ---------------------------------------------------------------------------
# running sums through 0: the kernels' scalar types
# ---------------------------------------------------------------------------

HALVES = (1, -1, 2, F(1, 2), F(-1, 2), F(3, 2), F(-3, 2))


def _kept(acc, key, c):
    """Sum without dropping a zero: a Fraction(0) stays, and a later int term
    ends as a Fraction."""
    acc[key] = acc.get(key, 0) + c


def _retyped(side):
    """The keys of side whose value a zero-keeping sum typed differently from
    the reference's int-where-integral value."""
    return [k for k, _, t in _typed(side) if type(side[k]) is not t]


@pytest.mark.parametrize("seed", range(8))
def test_running_sums_through_zero_keep_int_where_integral(seed):
    # dense integral products on few indices and operands (and units) in
    # halves: many
    # keys take several terms, and a sum that passes through 0 before an int
    # term arrives is a Fraction(0) plus an int in a zero-keeping accumulator
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    entries = [(i, j, k, rng.choice((1, -1, 2))) for i in range(n) for j in range(n)
               for k in range(n) if rng.random() < 0.6]
    alg = StructureAlgebra(n, Tensor3.from_entries((n, n, n), entries), (1,) + (0,) * (n - 1))
    coal = StructureCoalgebra(n, _random_algebra(rng, n, 0.5).mult, (1,) * n)
    algs2 = (alg, alg)
    retyped = {"product": 0, "hexagon": 0, "unit weak": 0}
    for _ in range(30):
        u = {(rng.randrange(n), rng.randrange(n)): rng.choice(HALVES) for _ in range(8)}
        v = {(rng.randrange(n), rng.randrange(n)): rng.choice(HALVES) for _ in range(8)}
        unit = tuple(rng.choice(HALVES) for _ in range(n))
        w = WeakHopfData(StructureAlgebra(n, alg.mult, unit), coal, LinearMap.identity(n))
        _same(tensor_mul_sparse(algs2, u, v), _tensor_mul_reference(algs2, u, v))
        for got, want in zip(hexagon_sides(alg, coal, u), _hexagon_reference(alg, coal, u)):
            _same(got, want)
        for got, want in zip(unit_weak_comult_sides(w), _unit_weak_reference(w)):
            _same(got, want)
        kept = {"product": [_tensor_mul_reference(algs2, u, v, _kept)],
                "hexagon": _hexagon_reference(alg, coal, u, _kept),
                "unit weak": _unit_weak_reference(w, _kept)}
        for kernel, sides in kept.items():
            retyped[kernel] += sum(len(_retyped({k: c for k, c in side.items() if c}))
                                   for side in sides)
    assert all(retyped.values())    # the seeded operands reach the case for each kernel
