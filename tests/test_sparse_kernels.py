"""The support-indexed products of tensor powers against the loops they
replaced.

`tensor_mul_sparse` forms a pair of terms only where the first legs' cell is
nonempty, and `hexagon_sides` pairs a term of R only with the terms whose
product cell is nonempty.  The all-pairs loops are kept here as references,
and the kernels must give the same keys and values on the R-matrices of
D(kZ2), D(kS3) and B, and on seeded operands: 0, 1 and many terms, 2 and 3
legs, cancelling terms and non-unital product tensors.
"""

import random
from fractions import Fraction as F

import pytest

from hopfsmash.exactlin import Tensor3
from hopfsmash.hopfcore import (
    StructureAlgebra,
    StructureCoalgebra,
    add_outer3,
    hexagon_sides,
    tensor_mul_sparse,
    unit_products,
)

# ---------------------------------------------------------------------------
# references: every pair of terms
# ---------------------------------------------------------------------------


def _add(acc, key, c):
    w = acc.get(key, 0) + c
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _tensor_mul_reference(algs, u, v):
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
                    _add(out, key, c)
    return out


def _hexagon_reference(alg, coal, r):
    times_one, one_times = unit_products(alg, {z for key in r for z in key})
    d_id, id_d, r13r23, r13r12 = {}, {}, {}, {}
    for (a, b), c in r.items():
        for j, k, w in coal.comul_row(a):
            _add(d_id, (j, k, b), c * w)
        for j, k, w in coal.comul_row(b):
            _add(id_d, (a, j, k), c * w)
        for (x, y), cxy in r.items():
            add_outer3(r13r23, c * cxy, times_one[a], one_times[x], alg.mul_row(b, y))
            add_outer3(r13r12, c * cxy, alg.mul_row(a, x), one_times[y], times_one[b])
    return d_id, r13r23, id_d, r13r12


def _same(got, want):
    assert got == want
    assert sorted(got.items()) == sorted(want.items())    # keys and values, listed


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
    for algs in ((a, a), (a, b), (b, a, a), (a, b, b)):
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
