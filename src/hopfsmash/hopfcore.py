"""Structure-constant algebras, coalgebras, bialgebras and Hopf algebras.

Everything is a finite-dimensional vector space over the exact rationals with
structure tensors in the exactlin conventions.  Elements are sparse
{index: coefficient} vectors and structure maps (antipodes, counital maps,
embeddings) are exactlin.LinearMaps; only units and counits stay dense tuples.

Pairing conventions (fixed once):
    <a -> f, b> = <f, b a>        left action of an algebra on its dual
    <f <- a, b> = <f, a b>        right action of an algebra on its dual
    f -> c = c_(1) <f, c_(2)>     left hit of the dual on a coalgebra
    c <- f = <f, c_(1)> c_(2)     right hit of the dual on a coalgebra
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import cached_property

from .exactlin import (
    DimensionMismatch,
    Echelon,
    LinearMap,
    Record,
    Tensor3,
    TensorElem,
    kernel_basis,
    qdiv,
    rat,
    sorted_cell,
    sp,
    sp_add,
    sp_nonzero,
    sp_scale,
    vec_dot,
)
from .report import VerificationReport


class NotSemisimple(ValueError):
    """Integral machinery detected a non-semisimple input."""


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

class StructureAlgebra(Record):
    """An algebra given by its multiplication tensor and unit vector."""

    dim: int
    mult: Tensor3
    unit: tuple

    def __init__(self, dim, mult, unit):
        if type(dim) is not int:
            raise TypeError(f"dimension {dim!r} is not an integer")
        if mult.dims != (dim, dim, dim):
            raise DimensionMismatch("multiplication tensor has wrong shape")
        if len(unit) != dim:
            raise DimensionMismatch("unit vector has wrong length")
        vars(self).update(dim=dim, mult=mult, unit=unit)

    def mul_row(self, i: int, j: int):
        return self.mult.row(i, j)

    def mul_sparse(self, a: dict, b: dict) -> dict:
        return self.mult.act(a, b)

    @cached_property
    def unit_sparse(self) -> dict:
        return sp(self.unit)

    @cached_property
    def generators(self) -> tuple:
        """generating_set(self), computed once per algebra."""
        return generating_set(self)

    @cached_property
    def support(self) -> tuple:
        """self.mult.support(), computed once per algebra: right[i] holds the
        j with e_i e_j nonzero, left[j] the i."""
        return self.mult.support()

    @cached_property
    def _unit_products(self) -> dict:
        """unit_products' values, by index, as they are first read."""
        return {}

    def unit_products(self, z: int) -> tuple:
        """(z 1, 1 z) for the index z, each a tuple of (index, coefficient),
        formed at the first read of z and kept: a caller pays only for the
        indices it reads.  Each term u of the unit, in its order, is read at
        the cells (z, u) and (u, z)."""
        if (got := self._unit_products.get(z)) is None:
            rows = self.mult._rows
            row = rows[z]
            times_one: dict = {}
            one_times: dict = {}
            for u, cu in self.unit_sparse.items():
                for k, w in row[u]:
                    sp_add(times_one, k, cu * w)
                for k, w in rows[u][z]:
                    sp_add(one_times, k, cu * w)
            got = self._unit_products[z] = (tuple(times_one.items()), tuple(one_times.items()))
        return got

    @cached_property
    def report(self) -> VerificationReport:
        """verify_algebra(self), computed once; shared, so read it."""
        return verify_algebra(self)

    twisting = None    # (A, B, tau) on a carrier that twisted_product built as A (x)_tau B

    @cached_property
    def associative_by_twisting(self) -> bool:
        """True when self is A (x)_tau B as twisted_product wrote it, A and B
        passed associativity and tau is a twisting map (`twisting_map_failures`
        finds nothing), so self is associative with unit 1 (x) 1; computed
        once.  The certificate trusts the cells that twisted_product wrote
        from tau: a carrier built any other way, or rebuilt from its cells as
        type(self)(dim, mult, unit), has no twisting and reads False."""
        if self.twisting is None:
            return False
        a, b, tau = self.twisting
        return (a.report.find("associativity").passed and b.report.find("associativity").passed
                and next(twisting_map_failures(a, b, tau), None) is None)

    def centralizer_basis(self, vectors) -> list:
        """Exact basis of {w : w v = v w for all given v}: the kernel of the
        nonempty sparse rows of w |-> w v - v w, read off the cells (c, j)
        and (j, c) that alg.support lists as nonempty for each term e_j of v."""
        rows = self.mult._rows
        right, left = self.support
        eqs = []
        for v in vectors:
            m: dict = {}    # m[r][c]: e_r in e_c v - v e_c
            for j, cj in v.items():
                rj = rows[j]
                for c in left[j]:
                    for r, w in rows[c][j]:
                        sp_add(m.setdefault(r, {}), c, cj * w)
                for c in right[j]:
                    for r, w in rj[c]:
                        sp_add(m.setdefault(r, {}), c, -cj * w)
            eqs.extend(filter(None, m.values()))
        return kernel_basis(eqs, self.dim)

    def center_basis(self) -> list:
        """Exact basis of the centre, the centralizer of S = self.generators
        once self.report has passed associativity, else of every e_i.

        If w commutes with s and t then, by associativity, w (s t) =
        (s w) t = s (t w) = (s t) w; so T = {v : w v = v w} holds every
        product of elements of S, hence their span A: the centralizer of S
        is that of A, as for double_smash_decomposition's C.  Without
        associativity the induction fails, so every index is kept.  Both
        routes return kernel_basis's canonical basis of one subspace."""
        idx = self.generators if self.report.find("associativity").passed else range(self.dim)
        return self.centralizer_basis([{i: 1} for i in idx])


def sweedler_rows(t: Tensor3) -> tuple:
    """rows[w] = ((d, w', c), ...) for rho(e_w) = sum c e_d (x) e_w' read off a
    coaction tensor t[w][d][w']; for t = Delta these are the coproduct rows.
    Only the nonempty cells of each plane, as t.support() lists them, are read."""
    return tuple(tuple((d, w2, c) for d in ds for w2, c in plane[d])
                 for plane, ds in zip(t._rows, t.support()[0]))


class StructureCoalgebra(Record):
    """A coalgebra given by its comultiplication tensor and counit vector."""

    dim: int
    comult: Tensor3
    counit: tuple

    def __init__(self, dim, comult, counit):
        if comult.dims != (dim, dim, dim):
            raise DimensionMismatch("comultiplication tensor has wrong shape")
        if len(counit) != dim:
            raise DimensionMismatch("counit vector has wrong length")
        vars(self).update(dim=dim, comult=comult, counit=counit)

    @cached_property
    def rows(self):
        """Per-basis Sweedler rows: comul_row(i) = ((j, k, c), ...)."""
        return sweedler_rows(self.comult)

    def comul_row(self, i: int):
        return self.rows[i]

    def comul_sparse(self, a: dict) -> dict:
        out: dict = {}
        for i, c in a.items():
            for j, k, w in self.rows[i]:
                sp_add(out, (j, k), c * w)
        return out

    def counit_sparse(self, a: dict) -> int | Fraction:
        return sum(c * self.counit[i] for i, c in a.items())

    @cached_property
    def _rows2(self):
        """Two-fold Sweedler rows ((a, b, c, coeff), ...): (Delta x id)Delta by
        `comult_leg` on each row."""
        return tuple(tuple((a, b, k, c) for (a, b, k), c in comult_leg(
            self, {(j, k): c for j, k, c in row}, 0).items()) for row in self.rows)

    def comul2_row(self, i: int):
        return self._rows2[i]

    @cached_property
    def hits(self) -> tuple:
        """(left, right): the action tensors of the dual on C by the hits
        p -> c = c_(1) <p, c_(2)> and c <- p = <p, c_(1)> c_(2), each Delta
        with its legs moved, so left[p][c][c1] = Delta[c][c1][p] and
        right[p][c][c2] = Delta[c][p][c2]; read them with Tensor3.act(p, c)."""
        return self.comult.permuted((2, 0, 1)), self.comult.permuted((1, 0, 2))


class HopfData(Record):
    """Algebra + coalgebra on one carrier, with an antipode map."""

    algebra: StructureAlgebra
    coalgebra: StructureCoalgebra
    antipode: LinearMap

    def __init__(self, algebra, coalgebra, antipode):
        n = algebra.dim
        if n != coalgebra.dim:
            raise DimensionMismatch("algebra and coalgebra dimensions differ")
        if (antipode.source_dim, antipode.target_dim) != (n, n):
            raise DimensionMismatch("antipode matrix has wrong shape")
        vars(self).update(algebra=algebra, coalgebra=coalgebra, antipode=antipode)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mult(self) -> Tensor3:
        return self.algebra.mult

    @property
    def unit(self) -> tuple:
        return self.algebra.unit

    @property
    def comult(self) -> Tensor3:
        return self.coalgebra.comult

    @property
    def counit(self) -> tuple:
        return self.coalgebra.counit

    @cached_property
    def antipode_inv(self) -> LinearMap | None:
        return self.antipode.inverse()

    @cached_property
    def report(self) -> VerificationReport:
        """verify_hopf(self), computed once; shared, so read it."""
        return verify_hopf(self)


class IntegralPair(Record):
    """A two-sided integral in H and a normalized integral of the dual."""

    Lambda: dict
    lam: dict


# ---------------------------------------------------------------------------
# tensor-power products of sparse elements
# ---------------------------------------------------------------------------

def by_leg(x: dict, leg: int) -> dict:
    """{index: [(key, coefficient), ...]}: the terms of a tuple-keyed sparse
    element grouped by the index of one leg, in the order of x."""
    groups: dict = {}
    for key, c in x.items():
        groups.setdefault(key[leg], []).append((key, c))
    return groups


def meeting(groups: dict, support_row):
    """The keys of groups worth pairing with one row of a cell support: all of
    them when they are fewer, else those the row lists.  Either way the
    caller still skips a key whose cell is empty."""
    return groups if len(groups) <= len(support_row) else groups.keys() & support_row


def tensor_mul_sparse(algs, u: dict, v: dict, groups=None) -> dict:
    """Product in A (x) B, algs = (A, B), of sparse elements keyed by index
    pairs; any other number of algebras raises ValueError.

    A pair of terms a, b is formed only where the first legs' cell (a_1, b_1)
    is nonempty: v is grouped by first leg, and a term of u meets the groups
    that its row of A.support names.  A pair skipped has a zero first leg, so
    the product is that over every pair.  A caller that multiplies by one v
    many times passes by_leg(v, 0) as `groups`, formed once; else they are
    formed here.  The cells (a_1, b_1) and (a_2, b_2) are read directly and
    every term is summed into one accumulator, whose zeros are dropped once
    at the end (`sp_nonzero`).  A key's first term is stored as it is, not
    added to 0: 0 + Fraction goes through Fraction.__radd__, many times the
    cost of the store.
    """
    if len(algs) != 2:
        raise ValueError(f"tensor_mul_sparse multiplies in A (x) B, not in {len(algs)} legs")
    if not (u and v):
        return {}
    first, second = (alg.mult._rows for alg in algs)
    right = algs[0].support[0]
    if groups is None:
        groups = by_leg(v, 0)
    acc: dict = {}
    get = acc.get
    for (a1, a2), ca in u.items():
        ri, si = first[a1], second[a2]
        for j in meeting(groups, right[a1]):
            if cell1 := ri[j]:
                for (_, b2), cb in groups[j]:
                    if cell2 := si[b2]:
                        c = ca * cb
                        for k1, w1 in cell1:
                            cw = c * w1
                            for k2, w2 in cell2:
                                key, t = (k1, k2), cw * w2
                                acc[key] = t if (old := get(key)) is None else old + t
    return sp_nonzero(acc)


def sparse_outer(a: dict, b: dict) -> dict:
    """Outer product of tuple-keyed (or int-keyed) sparse elements."""
    out: dict = {}
    for ka, ca in a.items():
        ta = ka if isinstance(ka, tuple) else (ka,)
        for kb, cb in b.items():
            tb = kb if isinstance(kb, tuple) else (kb,)
            sp_add(out, ta + tb, ca * cb)
    return out


def multiply_legs(alg: StructureAlgebra, x: dict) -> dict:
    """m(x) = x^1 x^2 for a 2-leg sparse element x of A (x) A."""
    out: dict = {}
    rows = alg.mult._rows
    for (i, j), c in x.items():
        for k, w in rows[i][j]:
            sp_add(out, k, c * w)
    return out


def map_legs(f: LinearMap, g: LinearMap, x: dict) -> dict:
    """(f (x) g)(x) for a sparse 2-leg element x keyed by index pairs; a leg
    left as it is takes LinearMap.identity."""
    out: dict = {}
    fc, gc = f.cols, g.cols
    for (a, b), c in x.items():
        gb = gc[b]
        for i, ci in fc[a].items():
            cci = c * ci
            for j, cj in gb.items():
                sp_add(out, (i, j), cci * cj)
    return out


def leg_map(x: dict, n: int) -> LinearMap:
    """A sparse 2-leg element x of A (x) A, dim A = n, as the map of A whose
    column b holds the first legs beside e_b; its rows are the second legs
    beside each e_a."""
    cols = [{} for _ in range(n)]
    for (a, b), c in x.items():
        cols[b][a] = c
    return LinearMap(n, n, cols)


def casimir_failures(alg: StructureAlgebra, x: dict):
    """Basis indices (a,) with (e_a (x) 1) x != x (1 (x) e_a) in A (x) A: the
    separability equation a x = x a."""
    algs2 = (alg, alg)
    one = alg.unit_sparse
    groups = by_leg(x, 0)
    for a in range(alg.dim):
        if tensor_mul_sparse(algs2, sparse_outer({a: 1}, one), x, groups) \
                != tensor_mul_sparse(algs2, x, sparse_outer(one, {a: 1})):
            yield (a,)


# ---------------------------------------------------------------------------
# dual constructions and pairing actions
# ---------------------------------------------------------------------------

def opposite_algebra(alg: StructureAlgebra) -> StructureAlgebra:
    """A^op: e_j . e_i = e_i e_j."""
    return StructureAlgebra(alg.dim, alg.mult.permuted((1, 0, 2)), alg.unit)


def co_opposite(coal: StructureCoalgebra) -> StructureCoalgebra:
    """C^cop: Delta^cop(c) = c_(2) (x) c_(1), same counit."""
    return StructureCoalgebra(coal.dim, coal.comult.permuted((0, 2, 1)), coal.counit)


def convolution_algebra(coal: StructureCoalgebra) -> StructureAlgebra:
    """The dual algebra C* with <f * g, c> = <f, c_(1)><g, c_(2)>."""
    return StructureAlgebra(coal.dim, coal.comult.permuted((1, 2, 0)), coal.counit)


def dual_coalgebra(alg: StructureAlgebra) -> StructureCoalgebra:
    """The dual coalgebra A* with <Delta f, a (x) b> = <f, a b>."""
    return StructureCoalgebra(alg.dim, alg.mult.permuted((2, 0, 1)), alg.unit)


# ---------------------------------------------------------------------------
# certified generating sets
# ---------------------------------------------------------------------------

def generating_set(alg: StructureAlgebra, first=()) -> tuple:
    """Sorted basis indices S, picked greedily from `first`, then in basis
    order, whose left-normed words ((s_1 s_2) s_3) ... span A, with an exact
    certificate; a poor `first` costs size, never soundness.

    W, the least subspace with S in W and W S in W, is kept as an Echelon
    over the rationals; e_i joins S only when it is not yet in W, so on return
    W holds every e_i, that is W = A.  W is a subspace, not an index set: the
    closure of index sets is sound only for monomial tensors.  A row of W
    with one entry is e_k (Echelon rows lead with 1), so its product with
    e_s is a copy of the stored cell (k, s).
    """
    n = alg.dim
    cells = alg.mult._rows
    w = Echelon()
    todo: list = []      # (row of W, s): products w s not yet reduced into W
    gens: list = []

    def grow(v: dict) -> None:
        row = w.add(v)
        todo.extend((row, s) for s in gens)

    for i in (*first, *sorted(set(range(n)).difference(first))):
        if len(w.rows) == n:
            break
        v = w.residue({i: 1})
        if not v:
            continue
        gens.append(i)
        todo.extend((row, i) for row in w.rows.values())
        grow(v)
        while todo:
            row, s = todo.pop()
            if len(row) == 1:
                (k,) = row
                v = dict(cells[k][s])
            else:
                v = alg.mul_sparse(row, {s: 1})
            if v := w.residue(v):
                grow(v)
    return tuple(sorted(gens))


def host_generators(alg: StructureAlgebra, host_report, prefix: str = ""):
    """alg.generators once the host report has passed associativity and Delta
    multiplicativity, as the inductions over products by S need; else None."""
    ok = all(host_report.find(prefix + c).passed
             for c in ("algebra.associativity", "comult_multiplicative"))
    return alg.generators if ok else None


def certified_scan(failures, gens, full):
    """The failing cases of the full scan failures(full), e.g. full = range(n),
    searched only after the reduced scan failures(gens) has found one.

    For a law closed under products, with gens a certified generating set
    (see the callers), the two scans fail together, so a passing law costs
    only the reduced scan and a failing one keeps the full scan's first
    failing case as its witness.  gens=None runs the full scan alone.
    """
    if gens is not None and next(iter(failures(gens)), None) is None:
        return
    yield from failures(full)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_algebra(a: StructureAlgebra, subject: str = "algebra") -> VerificationReport:
    """Left/right unit laws, read off a.unit_products, and associativity.

    A carrier that twisted_product built as A (x)_tau B passes associativity
    on its certificate, a.associative_by_twisting: A and B passed
    associativity and tau is a twisting map, so by Cap-Schichl-Vanzura A (x)_tau
    B is associative (see twisting_map_failures).  The certificate trusts
    that the carrier's cells are the ones twisted_product wrote from tau.

    Every other algebra, and a carrier whose certificate fails, gets the
    scan of associativity as the module law of A acting on itself: Light's
    test on the basis triples (i, s, k) with s in S = a.generators, then,
    when that finds a failure, every triple, so its verdict and witness are
    the full scan's.  If (x s) y = x (s y) for all x, y and s in S, then
    T = {w : (x w) y = x (w y) for all x, y} holds S, and for w in T, s in S:
    (x (w s)) y = ((x w) s) y = (x w)(s y) = x (w (s y)) = x ((w s) y)
    by w, s, w, s in turn; so T is closed under right products by S, T = A.
    """
    rep = VerificationReport(subject)
    n = a.dim
    rep.check("unit_law", ((i,) for i in range(n)
                           if a.unit_products(i) != (((i, 1),), ((i, 1),))))
    rep.check("associativity", () if a.associative_by_twisting else certified_scan(
        lambda js: module_law_failures(a, a.mult, js), a.generators, range(n)))
    return rep


def counit_law_failures(rows, counit):
    """Indices (w,) with (eps (x) id) rho(e_w) != e_w, for the Sweedler rows
    of a left coaction rho over a coalgebra with counit eps: one accumulator
    of the difference, a key's first term stored as it is."""
    for w, row in enumerate(rows):
        acc: dict = {w: -1}
        get = acc.get
        for d, w2, c in row:
            if e := counit[d]:
                t = c * e
                acc[w2] = t if (old := get(w2)) is None else old + t
        if any(acc.values()):
            yield (w,)


def coassociativity_failures(rows, comul_rows, indices=None):
    """Indices (w,), w in `indices` (every index when None), with
    (Delta (x) id) rho(e_w) != (id (x) rho) rho(e_w), for the Sweedler rows of
    a left coaction rho and of the coproduct Delta: both sides go into one
    accumulator of their difference, a key's first term stored as it is."""
    for w in range(len(rows)) if indices is None else indices:
        acc: dict = {}
        get = acc.get
        for d, w2, c in rows[w]:
            for a, b, cc in comul_rows[d]:
                key, t = (a, b, w2), c * cc
                acc[key] = t if (old := get(key)) is None else old + t
            for d2, w3, cc in rows[w2]:
                key, t = (d, d2, w3), c * cc
                acc[key] = -t if (old := get(key)) is None else old - t
        if any(acc.values()):
            yield (w,)


def verify_coalgebra(c: StructureCoalgebra, subject: str = "coalgebra",
                     gens=None) -> VerificationReport:
    """The comodule kernels on C as a left comodule over itself, rho = Delta;
    the right counit law is the left one on the swapped rows, those of C^cop.
    The two counit scans are merged in index order, so the witness is the
    first index failing either side.

    Coassociativity is scanned on every index, or by certified_scan on
    `gens`: a caller passes a generating set S of an algebra on C only once
    that algebra is associative and Delta multiplicative on it.  Then
    (Delta (x) id) Delta and (id (x) Delta) Delta are both multiplicative, so
    T = {w : (Delta (x) id) Delta(w) = (id (x) Delta) Delta(w)} holds S, and
    for w in T, s in S: (Delta (x) id) Delta(w s) = (Delta (x) id) Delta(w)
    (Delta (x) id) Delta(s) = (id (x) Delta) Delta(w) (id (x) Delta) Delta(s)
    = (id (x) Delta) Delta(w s); so T, a subspace closed under right products
    by S, is the whole algebra.
    """
    rep = VerificationReport(subject)
    swapped = [tuple((k, j, w) for j, k, w in row) for row in c.rows]
    rep.check("counit_law", heapq.merge(counit_law_failures(c.rows, c.counit),
                                        counit_law_failures(swapped, c.counit)))
    rep.check("coassociativity", certified_scan(
        lambda ws: coassociativity_failures(c.rows, c.rows, ws), gens, range(c.dim)))
    return rep


def comult_multiplicative_failures(alg: StructureAlgebra, coal: StructureCoalgebra, right):
    """Basis pairs (i, j), j in `right`, with Delta(e_i e_j) != Delta(e_i) Delta(e_j).

    On an associative A it is enough that `right` is S = alg.generators: if
    T = {w : Delta(x w) = Delta(x) Delta(w) for all x} holds S, then for w in
    T, s in S: Delta(x (w s)) = Delta((x w) s) = Delta(x w) Delta(s) =
    Delta(x) Delta(w) Delta(s) = Delta(x) Delta(w s), so T = A.

    A term e_a (x) e_b of Delta(e_i) meets only its partners in Delta(e_j),
    the e_a2 (x) e_b2 with e_a e_a2 nonzero, listed once per (a, j) as the
    (cell a a2, b2, w2) of mates[a]: each term of Delta(e_j), in order, is
    filed under the a that alg.support lists beside a2.
    """
    rows, comul = alg.mult._rows, coal.rows
    left = alg.support[1]    # left[a2]: the a with e_a e_a2 nonzero
    scans = []
    for j in right:
        mates: list = [[] for _ in rows]
        for a2, b2, w2 in comul[j]:
            for a in left[a2]:
                mates[a].append((rows[a][a2], b2, w2))
        scans.append((j, mates))
    for i, ri in enumerate(rows):
        for j, mates in scans:
            acc: dict = {}    # Delta(e_i e_j) - Delta(e_i) Delta(e_j)
            for m, c in ri[j]:
                for a, b, w in comul[m]:
                    acc[a, b] = acc.get((a, b), 0) + c * w
            for a, b, w in comul[i]:
                for ps, b2, w2 in mates[a]:
                    if qs := rows[b][b2]:
                        c = w * w2
                        for p, cp in ps:
                            cpc = c * cp
                            for q, cq in qs:
                                acc[p, q] = acc.get((p, q), 0) - cpc * cq
            if any(acc.values()):
                yield (i, j)


def module_law_failures(alg: StructureAlgebra, action: Tensor3, right=None):
    """Triples (i, j, x), j in `right` (every index when None), with
    (e_i e_j) . v_x != e_i . (e_j . v_x) for a left action tensor
    action[h][x][y] of the algebra alg.

    On an associative A it is enough that `right` is S = alg.generators:
    if T = {w : (g w) . v = g . (w . v) for all g, v} holds S, then for w in T,
    s in S: (g (w s)) . v = ((g w) s) . v = (g w) . (s . v) = g . (w . (s . v))
    = g . ((w s) . v) by associativity, s, w, s in turn; so T = A.

    Pair (i, j) accumulates both sides over every x in one flat dict keyed
    x nv + y, from nonzero terms only: the entries of e_k . for e_k in e_i e_j,
    and the nonempty cells (x, e_j . v_x) read through row i.  Every x with no
    nonzero key is 0 = 0, so the failures and their order are the full scan's.
    """
    rows, mult, nv = action._rows, alg.mult._rows, action.dims[2]
    acts = action.support()[0]    # acts[k]: the x with e_k . v_x nonzero
    entries = [[(x * nv + y, w) for x in xs for y, w in plane[x]]    # e_k . as (x nv + y, w)
               for plane, xs in zip(rows, acts)]
    for i, ri in enumerate(rows):
        for j in range(alg.dim) if right is None else right:
            acc: dict = {}    # x nv + y -> v_y in (e_i e_j) . v_x - e_i . (e_j . v_x)
            for k, c in mult[i][j]:
                for key, w in entries[k]:
                    acc[key] = acc.get(key, 0) + c * w
            for x in acts[j]:
                for k, c in rows[j][x]:
                    for y, w in ri[k]:
                        key = x * nv + y
                        acc[key] = acc.get(key, 0) - c * w
            if any(acc.values()):
                yield from ((i, j, x) for x in sorted({key // nv for key, v in acc.items() if v}))


def measuring_failures(h: HopfData, action: Tensor3, alg: StructureAlgebra, acting=None):
    """Triples (i, x, y), i in `acting` (every index when None), with
    e_i . (e_x e_y) != (h_(1) . e_x)(h_(2) . e_y), h = e_i, for a left action
    tensor action[h][x][y] of H on the algebra alg.

    Once the module law holds and Delta is multiplicative, it is enough that
    `acting` is S = h.algebra.generators: if T = {w : w . (x y) =
    (w_(1) . x)(w_(2) . y) for all x, y} holds S, then for w in T, s in S:
    (w s) . (x y) = w . (s . (x y)) = w . ((s_(1) . x)(s_(2) . y))
    = (w_(1) . (s_(1) . x))(w_(2) . (s_(2) . y))
    = ((w_(1) s_(1)) . x)((w_(2) s_(2)) . y) = ((w s)_(1) . x)((w s)_(2) . y)
    by the module law, s, w, the module law and Delta(w s) = Delta(w) Delta(s);
    so T is closed under right products by S, T = H.

    Row (i, x) accumulates both sides over y from nonzero terms only: the
    nonempty cells (x, y), and each y that the second leg h_(2) of a term
    with h_(1) . e_x nonzero acts on.  Every y skipped is 0 = 0.
    """
    rows, mult = action._rows, alg.mult._rows
    acts, right = action.support()[0], alg.support[0]    # acts[b]: the y with e_b . v_y nonzero
    for i in range(h.dim) if acting is None else acting:
        ri, delta = rows[i], h.coalgebra.comul_row(i)
        for x, mx in enumerate(mult):
            acc: dict = {}    # (y, m) -> coefficient of e_m at y
            for y in right[x]:
                for k, ck in mx[y]:
                    for m, cm in ri[k]:
                        acc[y, m] = acc.get((y, m), 0) + ck * cm
            for a, b, c in delta:
                if moved := rows[a][x]:    # h_(1) . e_x
                    rb = rows[b]
                    for y in acts[b]:
                        for k2, c2 in rb[y]:
                            for k, ck in moved:
                                cck = c * c2 * ck
                                for m, cm in mult[k][k2]:
                                    acc[y, m] = acc.get((y, m), 0) - cck * cm
            if any(acc.values()):
                yield from ((i, x, y) for y in sorted({y for (y, _), v in acc.items() if v}))


def quantum_commutativity_failures(r: TensorElem, alg: StructureAlgebra, action: Tensor3):
    """Pairs (a, b), in row-major order, with e_a e_b != (r^2 . e_b)(r^1 . e_a)
    summed over the terms r^1 (x) r^2 of r, for a left action tensor
    action[h][x][y] of the host of r on the algebra alg.  The moved legs
    are multiplied inline, and a term of r with r^1 . e_a = 0 is skipped."""
    mult, rows = alg.mult._rows, action._rows
    for a in range(alg.dim):
        moved = [(rows[r2], c, va) for (r1, r2), c in r.items() if (va := rows[r1][a])]
        for b in range(alg.dim):
            acc = dict(mult[a][b])    # e_a e_b - (r^2 . e_b)(r^1 . e_a)
            for r2_rows, c, va in moved:
                for p, cp in r2_rows[b]:
                    rp, ccp = mult[p], c * cp
                    for q, cq in va:
                        for k, w in rp[q]:
                            acc[k] = acc.get(k, 0) - ccp * cq * w
            if any(acc.values()):
                yield (a, b)


def intertwining_failures(alg: StructureAlgebra, coal: StructureCoalgebra, r: dict, indices):
    """Basis indices (i,), i in `indices`, with R Delta(e_i) != Delta^cop(e_i) R
    for a sparse 2-leg R keyed by index pairs.

    On an associative A with Delta multiplicative it is enough that `indices`
    is S = alg.generators: if T = {w : R Delta(w) = Delta^cop(w) R} holds S,
    then for w in T, s in S: R Delta(w s) = R Delta(w) Delta(s) =
    Delta^cop(w) R Delta(s) = Delta^cop(w) Delta^cop(s) R = Delta^cop(w s) R,
    so T, a subspace, holds every left-normed word in S, T = A.  Neither a
    unit nor a counit law is used, so this serves weak bialgebras too.
    R, the right operand of every Delta^cop(e_i) R, is grouped once.
    """
    algs2 = (alg, alg)
    r_groups = by_leg(r, 0)
    for i in indices:
        dlt = {(a, b): c for a, b, c in coal.comul_row(i)}
        cop = {(b, a): c for a, b, c in coal.comul_row(i)}
        if tensor_mul_sparse(algs2, r, dlt) != tensor_mul_sparse(algs2, cop, r, r_groups):
            yield (i,)


def padded_product(alg: StructureAlgebra, x: dict, x_legs, y: dict, y_legs) -> dict:
    """x^{x_legs} y^{y_legs} in A (x) A (x) A for sparse 2-leg x, y keyed by
    index pairs: the components of x sit on legs x_legs[0] and x_legs[1],
    those of y on y_legs, each leg left free holds the unit, and the two
    placements share exactly one leg (else ValueError).  So R^13 R^23 is
    padded_product(alg, R, (0, 2), R, (1, 2)).

    Over pairs of terms, the shared leg holds the product of the two
    components there, x's other leg z 1 and y's other leg 1 z, read off
    alg.unit_products at those legs only: by bilinearity this is the
    product for any multiplication tensor, unital or not.  A term of x
    meets only the terms of y whose shared cell is nonempty, read off
    alg.support with y grouped by its shared component; every pair skipped
    has a zero leg, so the sum is that over every pair.  Each pair adds the
    outer product of its three legs into one accumulator; a key's first
    term is stored as it is, as in tensor_mul_sparse, and the zeros are
    dropped once at the end (`sp_nonzero`)."""
    if not (len(x_legs) == len(set(x_legs)) == len(y_legs) == len(set(y_legs)) == 2
            and {*x_legs, *y_legs} == {0, 1, 2}):
        raise ValueError(f"legs {x_legs} and {y_legs} do not share exactly one of 0, 1, 2")
    (shared,) = set(x_legs) & set(y_legs)
    xs, ys = x_legs.index(shared), y_legs.index(shared)
    # the position of each leg in (shared cell, z 1 of x, 1 z of y)
    slot = {shared: 0, x_legs[1 - xs]: 1, y_legs[1 - ys]: 2}
    i0, i1, i2 = (slot[leg] for leg in range(3))
    unit_products = alg.unit_products
    rows, right = alg.mult._rows, alg.support[0]
    groups: dict = {}
    for key, c in y.items():
        if v := unit_products(key[1 - ys])[1]:
            groups.setdefault(key[ys], []).append((v, c))
    acc: dict = {}
    get = acc.get
    for key, c in x.items():
        p, u = key[xs], unit_products(key[1 - xs])[0]
        if u:
            row = rows[p]
            for q in meeting(groups, right[p]):
                if cell := row[q]:
                    for v, cy in groups[q]:
                        legs, cc = (cell, u, v), c * cy
                        for i, ci in legs[i0]:
                            for j, cj in legs[i1]:
                                cij = cc * ci * cj
                                for k, ck in legs[i2]:
                                    key3, t = (i, j, k), cij * ck
                                    acc[key3] = t if (old := get(key3)) is None else old + t
    return sp_nonzero(acc)


def comult_leg(coal: StructureCoalgebra, x: dict, leg: int) -> dict:
    """(Delta (x) id)(x) for leg 0 and (id (x) Delta)(x) for leg 1 (else
    ValueError), x a sparse 2-leg element keyed by index pairs, read through
    the Sweedler rows of coal.  One accumulator; a key's first term is stored
    as it is, and its zeros are dropped once at the end (`sp_nonzero`)."""
    if leg not in (0, 1):
        raise ValueError(f"Delta acts on leg 0 or 1 of a 2-leg element, not on {leg!r}")
    rows = coal.rows
    acc: dict = {}
    get = acc.get
    for (a, b), c in x.items():
        for j, k, w in rows[b if leg else a]:
            key, t = (a, j, k) if leg else (j, k, b), c * w
            acc[key] = t if (old := get(key)) is None else old + t
    return sp_nonzero(acc)


def hexagon_sides(alg: StructureAlgebra, coal: StructureCoalgebra, r: dict) -> tuple:
    """((Delta (x) id)(R), R^13 R^23, (id (x) Delta)(R), R^13 R^12) for a sparse
    2-leg R keyed by index pairs, by `comult_leg` and `padded_product`."""
    return (comult_leg(coal, r, 0), padded_product(alg, r, (0, 2), r, (1, 2)),
            comult_leg(coal, r, 1), padded_product(alg, r, (0, 2), r, (0, 1)))


def r_matrix_rows(rep: VerificationReport, alg: StructureAlgebra, coal: StructureCoalgebra,
                  r: dict, gens) -> None:
    """The rows intertwines_comult, scanned on gens unless None (see
    intertwining_failures), delta_tensor_id and id_tensor_delta of a sparse
    2-leg R keyed by index pairs."""
    rep.check("intertwines_comult", certified_scan(
        lambda idx: intertwining_failures(alg, coal, r, idx), gens, range(alg.dim)))
    d_id, r13r23, id_d, r13r12 = hexagon_sides(alg, coal, r)
    rep.add("delta_tensor_id", d_id == r13r23)
    rep.add("id_tensor_delta", id_d == r13r12)


def bialgebra_prelude(rep: VerificationReport, alg: StructureAlgebra,
                      coal: StructureCoalgebra) -> tuple:
    """Merge alg.report as "algebra.", scan Delta multiplicativity on S, and
    merge verify_coalgebra as "coalgebra.", scanned on S once that passed;
    returns (S, the Delta scan's first failing pair or None).  S is
    alg.generators once associativity passed, else None, a full scan (see
    comult_multiplicative_failures and verify_coalgebra)."""
    rep.merge(alg.report, "algebra.")
    gens = alg.generators if rep.find("algebra.associativity").passed else None
    multiplicative = next(iter(certified_scan(
        lambda js: comult_multiplicative_failures(alg, coal, js), gens, range(alg.dim))), None)
    rep.merge(verify_coalgebra(coal, gens=gens if multiplicative is None else None),
              "coalgebra.")
    return gens, multiplicative


def convolution(f: LinearMap, g: LinearMap, coal: StructureCoalgebra,
                alg: StructureAlgebra) -> LinearMap:
    """The convolution f * g : c |-> f(c_(1)) g(c_(2)) of maps f, g from the
    coalgebra coal to the algebra alg, one accumulator per basis element
    read through the Sweedler rows of coal and the cells of alg."""
    fc, gc, rows = f.cols, g.cols, alg.mult._rows
    cols = []
    for row in coal.rows:
        acc: dict = {}
        for j, k, w in row:
            gk = gc[k]
            for r, cr in fc[j].items():
                rr, wr = rows[r], w * cr
                for t, ct in gk.items():
                    c = wr * ct
                    for m, cm in rr[t]:
                        acc[m] = acc.get(m, 0) + c * cm
        cols.append({m: c for m, c in acc.items() if c})
    return LinearMap(coal.dim, alg.dim, cols)


def verify_hopf(h: HopfData, subject: str = "hopf") -> VerificationReport:
    """Bialgebra compatibilities and the antipode convolution identities:
    antipode_left and antipode_right read the columns of S * id and id * S
    (`convolution`), each against eps(h) 1.

    Delta multiplicativity and coassociativity are scanned on S as
    bialgebra_prelude says, and eps multiplicativity on the pairs (i, s), s
    in S, once algebra.associativity has passed: T = {w : eps(x w) = eps(x)
    eps(w) for all x} holds S, and for w in T, s in S: eps(x (w s)) =
    eps((x w) s) = eps(x w) eps(s) = eps(x) eps(w) eps(s) = eps(x) eps(w s),
    so T = A.  eps is summed over a cell only when the cell is nonempty.
    """
    rep = VerificationReport(subject)
    n = h.dim
    gens, multiplicative = bialgebra_prelude(rep, h.algebra, h.coalgebra)

    unit2 = sparse_outer(h.algebra.unit_sparse, h.algebra.unit_sparse)
    rep.add("comult_unital", h.coalgebra.comul_sparse(h.algebra.unit_sparse) == unit2)
    rep.add("comult_multiplicative", multiplicative is None, multiplicative)

    eps, rows = h.counit, h.mult._rows
    rep.check("counit_multiplicative", certified_scan(
        lambda js: ((i, j) for i, ri in enumerate(rows) for j in js
                    if (sum(c * eps[k] for k, c in cell) if (cell := ri[j]) else 0)
                    != eps[i] * eps[j]), gens, range(n)))
    rep.add("counit_unital", h.coalgebra.counit_sparse(h.algebra.unit_sparse) == 1)

    # S(h_(1)) h_(2) = eps(h) 1 = h_(1) S(h_(2))
    ident = LinearMap.identity(n)
    u = h.algebra.unit_sparse
    for name, f, g in (("antipode_left", h.antipode, ident), ("antipode_right", ident, h.antipode)):
        cols = convolution(f, g, h.coalgebra, h.algebra).cols
        rep.check(name, ((i,) for i in range(n) if cols[i] != sp_scale(u, eps[i])))

    rep.add("antipode_involutive", h.antipode.compose(h.antipode).is_identity(),
            informational=True)
    return rep


def algebra_map_failures(f: LinearMap, src: StructureAlgebra, dst: StructureAlgebra,
                         right=None, src_op: bool = False, dst_op: bool = False):
    """Ascending basis pairs (i, j), j in `right` (every index when None),
    with f(e_i e_j) != f(e_i) f(e_j) for a linear map f from src to dst.

    src_op reads the product of src swapped, f(e_j e_i), and dst_op that of
    dst, f(e_j) f(e_i), in place: either makes it an anti-algebra map scan,
    the two listing the same failures in transposed order.  `right` may be a
    generating set S of src where the caller shows the law closed under right
    products by S (see verify_weak_hopf).  Row i's products are src's
    nonempty cells (i, j), j in `right`; the scan is `_map_failures`.
    """
    rows, nd = src.mult._rows, dst.dim
    src_side = src.support[1 if src_op else 0]    # the j with e_i e_j nonzero
    keep = None if right is None else set(right)
    cols = f.cols

    def products(i: int, acc: dict) -> None:
        for j in src_side[i] if keep is None else keep.intersection(src_side[i]):
            base = j * nd
            for m, c in rows[j][i] if src_op else rows[i][j]:
                for k, w in cols[m].items():
                    key = base + k
                    acc[key] = acc.get(key, 0) + c * w

    return _map_failures(f, src.dim, products, dst, keep, dst_op)


def tensor_map_failures(f: LinearMap, a: StructureAlgebra, b: StructureAlgebra,
                        dst: StructureAlgebra, right=None):
    """algebra_map_failures(f, tensor_algebra(a, b), dst, right) without
    building A (x) B: on the flat index x * dim B + y, row x (x) y's products
    (x (x) y)(x2 (x) y2) = x x2 (x) y y2 are read off the outer product of
    the factors' nonempty cells (x, x2) and (y, y2), for x2 (x) y2 in `right`
    (every index when None).  So the failures, and the first of them, are
    those of the built source on the same columns."""
    nb, nd = b.dim, dst.dim
    cols = f.cols
    keep = None if right is None else set(right)
    # cells[x]: the (x2, cell x x2) with the cell nonempty, for A and for B;
    # for A only at the x2 of some column x2 (x) y2 in keep
    a_cells, b_cells = ([[(j, plane[j]) for j in side]
                         for plane, side in zip(t.mult._rows, t.support[0])] for t in (a, b))
    if keep is not None:
        firsts = {j // nb for j in keep}
        a_cells = [[(x2, cell) for x2, cell in row if x2 in firsts] for row in a_cells]

    def products(i: int, acc: dict) -> None:
        x, y = divmod(i, nb)
        for x2, cell_a in a_cells[x]:
            for y2, cell_b in b_cells[y]:
                j = x2 * nb + y2
                if keep is not None and j not in keep:
                    continue
                base = j * nd
                for ka, ca in cell_a:
                    shift = ka * nb
                    for kb, cb in cell_b:
                        c = ca * cb
                        for k, w in cols[shift + kb].items():
                            key = base + k
                            acc[key] = acc.get(key, 0) + c * w

    return _map_failures(f, a.dim * nb, products, dst, keep, False)


def _map_failures(f: LinearMap, n: int, products, dst: StructureAlgebra, keep, dst_op: bool):
    """The row scan of algebra_map_failures and tensor_map_failures over a
    source of dim n (Gustavson's row-at-a-time sparse product).  Row i keeps
    one flat accumulator of f(e_i e_j) - f(e_i) f(e_j), keyed j dim dst + k:
    products(i, acc) adds f(e_i e_j) from the source's nonempty cells, and
    each e_a in f(e_i) and nonempty cell (a, b) of dst subtracts the j with
    e_b in f(e_j), j in `keep` (every index when None), read off `holders`.
    Every pair skipped is 0 = 0, so the failures are those of the scan over
    every pair, yielded in ascending order."""
    cols, nd = f.cols, dst.dim
    dst_rows = dst.mult._rows
    dst_side = dst.support[1 if dst_op else 0]    # the b with e_a e_b nonzero
    holders = [[] for _ in range(nd)]    # holders[b]: (j dim dst, coefficient of e_b in f(e_j))
    for j in range(n) if keep is None else keep:
        for b, cb in cols[j].items():
            holders[b].append((j * nd, cb))
    held = [b for b, hb in enumerate(holders) if hb]
    for i in range(n):
        acc: dict = {}    # j dim dst + k -> coefficient of e_k in f(e_i e_j) - f(e_i) f(e_j)
        products(i, acc)
        for a, ca in cols[i].items():
            # the b with a nonempty cell (a, b) and a holder, from the shorter list
            side = dst_side[a] if len(dst_side[a]) <= len(held) else held
            for b in side:
                if (hb := holders[b]) and (ab := dst_rows[b][a] if dst_op else dst_rows[a][b]):
                    for base, cb in hb:
                        c = ca * cb
                        for k, w in ab:
                            key = base + k
                            acc[key] = acc.get(key, 0) - c * w
        if any(acc.values()):
            yield from ((i, j) for j in sorted({key // nd for key, v in acc.items() if v}))


def coalgebra_map_failures(f: LinearMap, src: StructureCoalgebra, dst: StructureCoalgebra,
                           cop: bool = False):
    """Basis indices (i,) with Delta(f(e_i)) != (f (x) f) Delta(e_i) for a
    linear map f from src to dst; cop reads the coproduct of src swapped,
    f(e_i(2)) (x) f(e_i(1)), in place: an anti-coalgebra map scan."""
    cols = f.cols
    for i in range(src.dim):
        rhs: dict = {}
        for j, k, w in src.comul_row(i):
            if cop:
                j, k = k, j
            for a, ca in cols[j].items():
                for b, cb in cols[k].items():
                    sp_add(rhs, (a, b), w * ca * cb)
        if dst.comul_sparse(cols[i]) != rhs:
            yield (i,)


def check_map(f: LinearMap, src, dst, kinds, gens=None) -> VerificationReport:
    """Per-kind morphism checks; kinds within {algebra, coalgebra, antipode, injective}.

    The algebra_map row is scanned on the pairs (i, s), s in gens, by
    certified_scan when gens is not None: a caller passes a generating set S
    of src only once src and dst are both associative.  Then T = {w : f(x w) =
    f(x) f(w) for all x} holds S, and for w in T, s in S: f(x (w s)) =
    f((x w) s) = f(x w) f(s) = f(x) f(w) f(s) = f(x) f(w s), so T = src."""
    if (f.source_dim, f.target_dim) != (src.dim, dst.dim):
        raise DimensionMismatch("map dims disagree with its source and target")
    rep = VerificationReport("map")
    kinds = set(kinds)
    cols = f.cols
    if "algebra" in kinds:
        sa = src.algebra if isinstance(src, HopfData) else src
        da = dst.algebra if isinstance(dst, HopfData) else dst
        rep.check("algebra_map", certified_scan(
            lambda js: algebra_map_failures(f, sa, da, js), gens, None))
        rep.add("unit_preserved", f.apply_sparse(sa.unit_sparse) == da.unit_sparse)
    if "coalgebra" in kinds:
        sc = src.coalgebra if isinstance(src, HopfData) else src
        dc = dst.coalgebra if isinstance(dst, HopfData) else dst
        rep.check("coalgebra_map", coalgebra_map_failures(f, sc, dc))
        rep.check("counit_preserved", ((i,) for i in range(sc.dim)
                                       if dc.counit_sparse(cols[i]) != sc.counit[i]))
    if "antipode" in kinds:
        rep.check("antipode_commuting",
                  ((c,) for c in range(f.source_dim)
                   if f.apply_sparse(src.antipode.cols[c]) != dst.antipode.apply_sparse(cols[c])))
    if "injective" in kinds:
        rep.add("injective", f.rank() == f.source_dim)
    return rep


# ---------------------------------------------------------------------------
# group algebras
# ---------------------------------------------------------------------------

class GroupTable(Record):
    """A finite group as a multiplication table over element names."""

    elements: tuple
    table: tuple

    @staticmethod
    def from_lists(elements, table) -> "GroupTable":
        return GroupTable(tuple(elements), tuple(tuple(r) for r in table))

    @property
    def order(self) -> int:
        return len(self.elements)

    def validate(self) -> None:
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("group table is not square")
        if any(type(x) is not int or not 0 <= x < n for r in self.table for x in r):
            raise ValueError("group table entries must be integers in range")
        self.identity    # ValueError when the table has none
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(f"group table not associative at {(i, j, k)}")
        for i in range(n):
            self.inv(i)    # ValueError when i has none

    @cached_property
    def identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise ValueError("group table has no identity")

    def inv(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == self.identity:
                return j
        raise ValueError(f"element {i} has no inverse")


def group_algebra(table: GroupTable) -> HopfData:
    """kG: basis = group elements, Delta(g) = g (x) g, S(g) = g^{-1}."""
    table.validate()
    n = table.order
    mult = Tensor3.from_entries((n, n, n),
                                ((i, j, table.table[i][j], 1)
                                 for i in range(n) for j in range(n)))
    unit = tuple(1 if i == table.identity else 0 for i in range(n))
    comult = Tensor3.from_entries((n, n, n), ((i, i, i, 1) for i in range(n)))
    counit = (1,) * n
    anti = LinearMap(n, n, tuple({table.inv(j): 1} for j in range(n)))
    h = HopfData(StructureAlgebra(n, mult, unit), StructureCoalgebra(n, comult, counit), anti)
    h.report.require()
    return h


# ---------------------------------------------------------------------------
# duals and opposites
# ---------------------------------------------------------------------------

def dual_hopf(h: HopfData) -> HopfData:
    """H*: convolution algebra, dual coalgebra, transposed antipode."""
    h.report.require()
    out = HopfData(convolution_algebra(h.coalgebra),
                   dual_coalgebra(h.algebra),
                   h.antipode.transpose())
    out.report.require()
    return out


def opposites(h: HopfData, which: str) -> HopfData:
    """H^op, H^cop or H^opcop, with the matching antipode.  The antipode
    S^{-1} of H^op and H^cop has inverse S, which is stored as theirs, so
    it is never found again by elimination."""
    if which not in ("op", "cop", "opcop"):
        raise ValueError("which must be 'op', 'cop' or 'opcop'")
    h.report.require()
    alg, coal, anti = h.algebra, h.coalgebra, h.antipode
    if which in ("op", "opcop"):
        alg = opposite_algebra(alg)
    if which in ("cop", "opcop"):
        coal = co_opposite(coal)
    if which in ("op", "cop"):
        anti = h.antipode_inv
        if anti is None:
            raise ValueError("antipode is not invertible; H^op/H^cop need S^{-1}")
    out = HopfData(alg, coal, anti)
    if which in ("op", "cop"):
        vars(out)["antipode_inv"] = h.antipode
    out.report.require()
    return out


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def _integral_equations(alg: StructureAlgebra, eps, indices) -> list:
    """Sparse rows of e_i x = eps[i] x and x e_i = eps[i] x, i in indices,
    on the coordinates of x, read off the multiplication rows."""
    n = alg.dim
    rows = []
    for i in indices:
        left = [{} for _ in range(n)]    # left[r][c]: e_r in e_i e_c - eps[i] e_c
        right = [{} for _ in range(n)]   # right[r][c]: e_r in e_c e_i - eps[i] e_c
        for c in range(n):
            for r, w in alg.mul_row(i, c):
                sp_add(left[r], c, w)
            for r, w in alg.mul_row(c, i):
                sp_add(right[r], c, w)
            sp_add(left[c], c, -eps[i])
            sp_add(right[c], c, -eps[i])
        for lr, rr in zip(left, right):
            rows.extend((lr, rr))
    return rows


def integrals(h: HopfData) -> IntegralPair:
    """Two-sided integral Lambda and dual integral lambda with <lambda, 1> = 1,
    <lambda, Lambda> = 1 (hence Lambda -> lambda = epsilon).

    Once h.report has passed, the equations s Lambda = eps(s) Lambda =
    Lambda s are written for s in S = h.algebra.generators only: eps is
    multiplicative, so (s t) Lambda = s (t Lambda) = eps(s) eps(t) Lambda =
    eps(s t) Lambda, and the same on the right, so they hold on all of A.
    Likewise for lambda in H*, whose counit f |-> f(1) is multiplicative
    because Delta(1) = 1 (x) 1.  The kernel is the same as for every index.
    (A weak Hopf algebra's counit is not multiplicative: all indices.)"""
    n = h.dim
    eps = h.counit
    dual = convolution_algebra(h.coalgebra)
    verified = type(h) is HopfData and h.report.ok
    ker = kernel_basis(_integral_equations(
        h.algebra, eps, h.algebra.generators if verified else range(n)), n)
    if len(ker) != 1:
        raise NotSemisimple(f"integral space of H has dimension {len(ker)}, expected 1")
    Lam = ker[0]

    ker = kernel_basis(_integral_equations(
        dual, h.unit, dual.generators if verified else range(n)), n)
    if len(ker) != 1:
        raise NotSemisimple(f"integral space of H* has dimension {len(ker)}, expected 1")
    lam = ker[0]

    pairing_one = vec_dot(lam, h.algebra.unit_sparse)
    if pairing_one == 0:
        raise NotSemisimple("cannot normalize <lambda, 1> = 1 (not cosemisimple)")
    lam = sp_scale(lam, qdiv(1, pairing_one))
    pairing = vec_dot(lam, Lam)
    if pairing == 0:
        raise NotSemisimple("cannot normalize <lambda, Lambda> = 1 (not semisimple)")
    Lam = sp_scale(Lam, qdiv(1, pairing))

    for i in range(n):
        e = {i: 1}
        if h.algebra.mul_sparse(e, Lam) != sp_scale(Lam, eps[i]):
            raise NotSemisimple(f"Lambda is not a left integral at basis {i}")
        if h.algebra.mul_sparse(Lam, e) != sp_scale(Lam, eps[i]):
            raise NotSemisimple(f"Lambda is not a right integral at basis {i}")
    # <Lambda -> lambda, e_b> = <lambda, e_b Lambda>
    if any(vec_dot(lam, h.algebra.mul_sparse({b: 1}, Lam)) != eps[b] for b in range(n)):
        raise NotSemisimple("Lambda -> lambda != epsilon after normalization")
    return IntegralPair(Lam, lam)


# ---------------------------------------------------------------------------
# product algebras
# ---------------------------------------------------------------------------

def matrix_algebra(t: int) -> StructureAlgebra:
    """M_t(k) on the matrix units, flat index i * t + j: E_ij E_jl = E_il."""
    n = t * t
    mult = Tensor3.from_entries((n, n, n), ((i * t + j, j * t + l, i * t + l, 1)
                                            for i in range(t) for j in range(t) for l in range(t)))
    return StructureAlgebra(n, mult, tuple(int(i == j) for i in range(t) for j in range(t)))


# kept: twisted_product with the flip tau builds Heis(kS3^cop) (x) kS3 1.7-1.8 times slower
def tensor_algebra(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """A (x) B, flat index x * dim B + y: (x (x) y)(x' (x) y') = x x' (x) y y',
    the outer product of the two multiplication tensors (`Tensor3.kron`)."""
    unit = tuple(ca * cb for ca in a.unit for cb in b.unit)
    return StructureAlgebra(a.dim * b.dim, a.mult.kron(b.mult), unit)


def inclusions(a: StructureAlgebra, b: StructureAlgebra) -> tuple:
    """The factor inclusions x |-> x (x) 1 and y |-> 1 (x) y as LinearMaps on
    the flat index x * dim B + y shared by A (x) B, A # H and D(H).  Only the
    dims and units are read."""
    na, nb = a.dim, b.dim
    one_a, one_b = a.unit_sparse, b.unit_sparse
    return (LinearMap(na, na * nb, [{x * nb + y: c for y, c in one_b.items()} for x in range(na)]),
            LinearMap(nb, na * nb, [{x * nb + y: c for x, c in one_a.items()} for y in range(nb)]))


def end_algebra(nv: int, alg: StructureAlgebra) -> StructureAlgebra:
    """End(V) (x) A for dim V = nv on a (x) e_i (x) k = E_ka (x) e_i, with E_ka
    the matrix unit v_a |-> v_k, at flat index (a dim A + i) nv + k:
    (a (x) h (x) k)(b (x) g (x) k') = <v*_k', v_a> b (x) hg (x) k, with unit
    sum_k k (x) 1 (x) k.  A cell does not depend on a, so it is formed once
    per (i, k, b, j) and the rows, already sorted, are written directly."""
    na = alg.dim
    n = nv * na * nv
    rows = alg.mult._rows
    planes = [()] * n
    for i in range(na):
        for k in range(nv):
            cells = [((b * na + j) * nv, tuple(((b * na + m) * nv + k, c) for m, c in rows[i][j]))
                     for b in range(nv) for j in range(na)]
            for a in range(nv):
                plane = [()] * n
                for col, cell in cells:
                    plane[col + a] = cell
                planes[(a * na + i) * nv + k] = tuple(plane)
    unit = [0] * n
    for k in range(nv):
        for i, c in alg.unit_sparse.items():
            unit[(k * na + i) * nv + k] = c
    return StructureAlgebra(n, Tensor3((n, n, n), tuple(planes)), tuple(unit))


def end_inclusions(nv: int, alg: StructureAlgebra, *actions) -> tuple:
    """The maps into End(V) (x) A = end_algebra(nv, alg), as LinearMaps on its
    flat index: iota(h) = sum_k k (x) h (x) k, an algebra map, and for each
    action tensor t of a space X on V (cell (x, w) the vector x . v_w) the
    map x |-> sum_w (x . v_w) (x) 1 (x) w, an anti-algebra map when t is a
    left action.  On s = a (x) h (x) k they act by iota(g) s = a (x) gh (x) k,
    s map(x) = (x . v_a) (x) h (x) k and map(x) s = a (x) h (x) (v*_k <| x),
    with <v*_k <| x, v_w> = <v*_k, x . v_w>."""
    n0 = alg.dim
    one = alg.unit_sparse

    def flat(a: int, i: int, k: int) -> int:
        return (a * n0 + i) * nv + k

    iota = LinearMap(n0, nv * n0 * nv, [{flat(k, i, k): 1 for k in range(nv)} for i in range(n0)])
    return (iota, *(LinearMap(t.dims[0], nv * n0 * nv, [
        {flat(a, i, w): c * ci for w in range(nv) for a, c in t.row(x, w) for i, ci in one.items()}
        for x in range(t.dims[0])]) for t in actions))


def twisted_product(a: StructureAlgebra, b: StructureAlgebra, tau) -> StructureAlgebra:
    """A (x)_tau B on the flat index x * dim B + y for a twisting map
    tau: B (x) A -> A (x) B given as tau[y][x2], the terms (x3, y3, c) of
    tau(e_y (x) e_x2): (x (x) y)(x2 (x) y2) = x tau(y (x) x2) y2, with unit
    1 (x) 1.  A pair (y, x2) with no terms is skipped; for the terms left,
    x runs over the support of the cells x x3, and only the nonempty cells
    x x3 and y3 y2 are read.  The cells of a row x (x) y and a column block
    x2 (x) B are formed in one (y, x2, x) iteration and written once: where
    one term and one entry of x x3 form them, each is a scaled, shifted copy
    of a cell y3 y2, already sorted, written as `Tensor3.kron` writes; else
    through an accumulator and `sorted_cell`.  The carrier is returned
    unverified, holding (a, b, tau) as its `twisting`, from which its
    associativity is certified (`associative_by_twisting`); A # H, the
    Heisenberg double and D(H) are all built here."""
    na, nb = a.dim, b.dim
    n = na * nb
    a_rows, left = a.mult._rows, a.support[1]
    # nonempty[y3]: the (y2, cell of e_y3 e_y2) with the cell nonempty
    nonempty = [[(y2, cell) for y2, cell in enumerate(plane) if cell]
                for plane in b.mult._rows]
    planes = [[()] * n for _ in range(n)]
    for y in range(nb):
        for x2, terms in enumerate(tau[y]):
            if not terms:
                continue
            reads = [(x3, nonempty[y3], c) for x3, y3, c in terms]
            for x in set().union(*(left[x3] for x3, _, _ in terms)):
                row = a_rows[x]
                plane = planes[x * nb + y]
                if len(reads) == 1 and len(row[reads[0][0]]) == 1:
                    # one term and one entry e_k of x x3: each cell is a
                    # scaled, shifted copy of a cell y3 y2, already sorted
                    [(x3, b_cells, c)] = reads
                    [(k, ck)] = row[x3]
                    if w := c * ck:
                        t = k * nb
                        for y2, cell_b in b_cells:
                            plane[x2 * nb + y2] = tuple([
                                (t + m, v if type(v := w * cm) is int else rat(v))
                                for m, cm in cell_b])
                    continue
                cells: dict = {}    # y2 -> the cell at column x2 (x) e_y2
                for x3, b_cells, c in reads:
                    for k, ck in row[x3]:
                        t, w = k * nb, c * ck
                        for y2, cell_b in b_cells:
                            if (cell := cells.get(y2)) is None:
                                cell = cells[y2] = {}
                            for m, cm in cell_b:
                                cell[t + m] = cell.get(t + m, 0) + w * cm
                for y2, cell in cells.items():
                    plane[x2 * nb + y2] = sorted_cell(cell)
    unit = [0] * n
    for x, cx in a.unit_sparse.items():
        for y, cy in b.unit_sparse.items():
            unit[x * nb + y] = cx * cy
    out = StructureAlgebra(n, Tensor3((n, n, n), tuple(map(tuple, planes))), tuple(unit))
    vars(out)["twisting"] = (a, b, tau)
    return out


def twisting_map_failures(a: StructureAlgebra, b: StructureAlgebra, tau):
    """The cases where tau: B (x) A -> A (x) B, given as twisted_product reads
    it, is not a twisting map, in this order:
        ("unit_b", x)        tau(1 (x) e_x) != e_x (x) 1, every x;
        ("unit_a", y)        tau(e_y (x) 1) != 1 (x) e_y, every y;
        ("product_b", y, y2, x)
            tau(e_y e_y2 (x) e_x) != (id (x) mu_B)(tau (x) id)(e_y (x) tau(e_y2 (x) e_x)),
            y in S_B = b.generators, every y2 and x;
        ("product_a", y, x, x2)
            tau(e_y (x) e_x e_x2) != (mu_A (x) id)(id (x) tau)(tau(e_y (x) e_x) (x) e_x2),
            x2 in S_A = a.generators, every y and x; or y in S_B, every x
            and x2, when that is fewer cases.

    Theorem (Cap, Schichl and Vanzura, Comm. Algebra 23, 1995): for A and B
    associative and unital, A (x)_tau B is associative with unit 1 (x) 1 if
    and only if tau is a twisting map, i.e. the four families above hold on
    every index.  The two product equations are the associativity of the
    carrier at (1 (x) y, 1 (x) y2, x (x) 1) and (1 (x) y, x (x) 1, x2 (x) 1).

    Generators are enough, on associative A and B.  For the first equation,
    T = {w : it holds at (w, y2, x) for all y2, x} is a subspace holding S_B.
    For w in T and s in S_B, tau((w s) y2 (x) x) = tau(w (s y2) (x) x) is, by
    w at (s y2, x) and s at (y2, x), x moved past y2, then s, then w, with
    the B legs multiplied; by w at (s, x') for each term x' (x) y' of
    tau(y2 (x) x), and B's associativity, that is the right side at
    (w s, y2, x).  So T is closed under right products by S_B, T = B.  The
    second is the mirror image: T = {w : it holds at (y, x, w) for all y, x}
    holds S_A, and tau(y (x) x (w s)) = tau(y (x) (x w) s) is, by s at
    (y, x w) and w at (y, x), y moved past x, then w, then s; by s at (y', w)
    for each term x' (x) y' of tau(y (x) x), and A's associativity, that is
    the right side at (y, x, w s), so T = A.  Once the first equation holds
    everywhere, the second may instead take y in S_B: T = {w : it holds at
    (w, x, x2) for all x, x2} holds S_B, and both sides at (w s, x, x2) are
    x x2 moved past s, then w, with the B legs multiplied, by the first
    equation at (w, s, .) and at the products of B legs, and by w and s; so
    T = B.  A failure of the first equation is yielded before that scan, so
    either way the scan is empty exactly when tau is a twisting map.

    Each case keeps one accumulator of its two sides on the flat index
    x * dim B + y and yields where a value is left nonzero."""
    na, nb = a.dim, b.dim
    n = na * nb
    a_rows, b_rows = a.mult._rows, b.mult._rows
    one_a, one_b = a.unit_sparse, b.unit_sparse
    s_a, s_b = a.generators, b.generators

    def cancels(sides) -> bool:
        """True when the signed sums of tau's terms in sides cancel."""
        acc: dict = {}
        for sign, terms in sides:
            for x3, y3, c in terms:
                key = x3 * nb + y3
                acc[key] = acc.get(key, 0) + sign * c
        return not any(acc.values())

    for x in range(na):
        if not cancels([(cu, tau[u][x]) for u, cu in one_b.items()]
                       + [(-1, [(x, v, cv) for v, cv in one_b.items()])]):
            yield ("unit_b", x)
    for y in range(nb):
        if not cancels([(cu, tau[y][u]) for u, cu in one_a.items()]
                       + [(-1, [(u, y, cu) for u, cu in one_a.items()])]):
            yield ("unit_a", y)
    for y in s_b:
        ty, by = tau[y], b_rows[y]
        for y2 in range(nb):
            acc: dict = {}    # x n + x4 nb + m -> both sides of the first equation at x
            for k, ck in by[y2]:
                for x, terms in enumerate(tau[k]):
                    base = x * n
                    for x3, y3, c in terms:
                        key = base + x3 * nb + y3
                        acc[key] = acc.get(key, 0) + ck * c
            for x, terms in enumerate(tau[y2]):
                base = x * n
                for x3, y3, c in terms:
                    for x4, y4, c4 in ty[x3]:
                        cc, at = c * c4, base + x4 * nb
                        for m, cm in b_rows[y4][y3]:
                            key = at + m
                            acc[key] = acc.get(key, 0) - cc * cm
            if any(acc.values()):
                yield from (("product_b", y, y2, x)
                            for x in sorted({key // n for key, v in acc.items() if v}))
    # the second equation on x2 in S_A, or on y in S_B when that is fewer cases
    ys, x2s = (s_b, range(na)) if len(s_b) * na < nb * len(s_a) else (range(nb), s_a)
    for y in ys:
        ty = tau[y]
        for x, ax in enumerate(a_rows):
            acc = {}    # x2 n + m nb + y4 -> both sides of the second equation at x2
            for x2 in x2s:
                base = x2 * n
                for k, ck in ax[x2]:
                    for x3, y3, c in ty[k]:
                        key = base + x3 * nb + y3
                        acc[key] = acc.get(key, 0) + ck * c
            for x3, y3, c in ty[x]:
                a3, t3 = a_rows[x3], tau[y3]
                for x2 in x2s:
                    base = x2 * n
                    for x4, y4, c4 in t3[x2]:
                        cc = c * c4
                        for m, cm in a3[x4]:
                            key = base + m * nb + y4
                            acc[key] = acc.get(key, 0) - cc * cm
            if any(acc.values()):
                yield from (("product_a", y, x, x2)
                            for x2 in sorted({key // n for key, v in acc.items() if v}))


def smash_carrier(alg: StructureAlgebra, h: HopfData, action: Tensor3) -> StructureAlgebra:
    """A # H on A (x) H, flat index a * dim H + h, for a left action tensor
    action[h][x][y] of H on A: (a # h)(b # g) = a (h_(1) . b) # h_(2) g, with
    unit 1 # 1.  This is the twisted product A (x)_tau H with
    tau(e_i (x) b) = sum (e_p . b) (x) e_q over Delta(e_i) = sum e_p (x) e_q.
    The carrier is returned unverified."""
    comul = h.coalgebra.rows
    tau = [[[(x, q, c * cx) for p, q, c in comul[i] for x, cx in action.row(p, b)]
            for b in range(alg.dim)] for i in range(h.dim)]
    return twisted_product(alg, h.algebra, tau)


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------

def drinfeld_double(h: HopfData):
    """D(H) on H* (x) H with R = sum_i (eps >< x_i) (x) (p_i >< 1).

    Multiplication convention: (f >< a)(g >< b) =
    f * (a_(1) -> g <- S^{-1}(a_(3))) >< a_(2) b, the unique standard choice
    under which the module-algebra formulas on H hold (checked downstream).
    It is the twisted product H* (x)_tau H with that tau(a (x) g).  The
    coproduct is the tensor coalgebra (H*)^cop (x) H, by `Tensor3.kron`, and
    S_D and R are written through the factor `inclusions` of H* and H.
    """
    h.report.require()
    n = h.dim
    if h.antipode_inv is None:
        raise ValueError("drinfeld_double needs an invertible antipode")
    nn = n * n
    sinv = h.antipode_inv
    alg = h.algebra

    # tau(e_b (x) p_c) = (b_(1) -> p_c <- S^{-1}(b_(3))) (x) b_(2), by the
    # hits of H on the coalgebra H*
    dual_coal = dual_coalgebra(alg)
    left, right = dual_coal.hits
    tau = [[[(y, t2, w * cy) for t1, t2, t3, w in h.coalgebra.comul2_row(b)
             for y, cy in right.act(sinv.cols[t3], dict(left.row(t1, c))).items()]
            for c in range(n)] for b in range(n)]
    dual = convolution_algebra(h.coalgebra)
    dalg = twisted_product(dual, alg, tau)

    # the cached S tries the arrows p_a >< s first, s in S_H less each s the
    # rest generate, or the first pair of H's indices that generates H when
    # that leaves more than two; the certificate is unchanged
    s_h = list(alg.generators)
    for s in alg.generators:
        if set(generating_set(alg, rest := [t for t in s_h if t != s])) <= set(rest):
            s_h = rest
    if len(s_h) > 2:
        s_h = next((list(pair) for pair in itertools.combinations(range(n), 2)
                    if set(generating_set(alg, pair)) <= set(pair)), s_h)
    vars(dalg)["generators"] = generating_set(dalg, [a * n + s for a in range(n) for s in s_h])
    # Delta_D is the tensor coalgebra (H*)^cop (x) H
    dcoal = StructureCoalgebra(nn, co_opposite(dual_coal).comult.kron(h.comult),
                               tuple(ca * cb for ca in h.unit for cb in h.counit))

    # S_D(p_a >< x_b) = (eps >< S(x_b)) (S*^{-1}(p_a) >< 1); S*^{-1}(p_a) is
    # row a of S^{-1}, a column of its transpose
    on_dual, on_h = inclusions(dual, alg)
    lefts = on_h.compose(h.antipode).cols
    rights = on_dual.compose(sinv.transpose()).cols
    anti = [dalg.mul_sparse(lefts[b], rights[a]) for a in range(n) for b in range(n)]
    dh = HopfData(dalg, dcoal, LinearMap(nn, nn, anti))
    dh.report.require()

    # R = sum_i (eps >< x_i) (x) (p_i >< 1)
    R = TensorElem.from_entries(
        (nn, nn), map_legs(on_h, on_dual, {(i, i): 1 for i in range(n)}).items())

    from .qtriang import qt_structure
    q = qt_structure(dh, R)
    return dh, q


# ---------------------------------------------------------------------------
# Heisenberg double
# ---------------------------------------------------------------------------

def heisenberg_double(h: HopfData) -> StructureAlgebra:
    """H # H* with H* acting by the left hit p . l = l_(1) <p, l_(2)>, on the
    flat index l * dim H + p."""
    out = smash_carrier(h.algebra, dual_hopf(h), h.coalgebra.hits[0])
    out.report.require()
    return out
