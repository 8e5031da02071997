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
from collections import defaultdict
from fractions import Fraction
from functools import cache, cached_property

from .exactlin import (
    DimensionMismatch,
    Echelon,
    LinearMap,
    Record,
    Tensor3,
    TensorElem,
    kernel_basis,
    qdiv,
    sorted_cell,
    sp,
    sp_add,
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
    def report(self) -> VerificationReport:
        """verify_algebra(self), computed once; shared, so read it."""
        return verify_algebra(self)

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mul_row(i, j) != self.mul_row(j, i):
                    return False
        return True

    def centralizer_basis(self, vectors) -> list:
        """Exact basis of {w : w v = v w for all given v}: the kernel of the
        sparse rows of w |-> w v - v w, read off the multiplication rows."""
        n = self.dim
        rows = self.mult._rows
        eqs = []
        for v in vectors:
            m = [{} for _ in range(n)]    # m[r][c]: e_r in e_c v - v e_c
            for j, cj in v.items():
                rj = rows[j]
                for c in range(n):
                    for r, w in rows[c][j]:
                        sp_add(m[r], c, cj * w)
                    for r, w in rj[c]:
                        sp_add(m[r], c, -cj * w)
            eqs.extend(m)
        return kernel_basis(eqs, n)

    def center_basis(self) -> list:
        return self.centralizer_basis([{i: 1} for i in range(self.dim)])


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
        """Two-fold Sweedler rows ((a, b, c, coeff), ...) via (Delta x id)Delta."""
        rows = []
        for i in range(self.dim):
            acc: dict = {}
            for j, k, c in self.rows[i]:
                for a, b, w in self.rows[j]:
                    sp_add(acc, (a, b, k), c * w)
            rows.append(tuple((a, b, k, c) for (a, b, k), c in acc.items()))
        return tuple(rows)

    def comul2_row(self, i: int):
        return self._rows2[i]


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


def tensor_mul_sparse(algs, u: dict, v: dict) -> dict:
    """Product in A_1 (x) ... (x) A_m of sparse elements keyed by index tuples.

    A pair of terms a, b is formed only where the first legs' cell (a_1, b_1)
    is nonempty: v is grouped by first leg, and a term of u meets the groups
    that its row of algs[0].support names.  A pair skipped has a zero first
    leg, so the product is that over every pair.
    """
    out: dict = {}
    if not (u and v):
        return out
    tabs = [alg.mult._rows for alg in algs]
    first = tabs[0]
    right = algs[0].support[0]
    groups = by_leg(v, 0)
    for ka, ca in u.items():
        ri = first[ka[0]]
        for j in meeting(groups, right[ka[0]]):
            if ri[j]:
                for kb, cb in groups[j]:
                    legs = [tab[ia][ib] for tab, ia, ib in zip(tabs, ka, kb)]
                    if all(legs):    # a zero leg: no product is formed
                        terms = [((), ca * cb)]
                        for row in legs:
                            terms = [(key + (k,), c * w) for key, c in terms for k, w in row]
                        for key, c in terms:
                            sp_add(out, key, c)
    return out


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
    for a in range(alg.dim):
        if tensor_mul_sparse(algs2, sparse_outer({a: 1}, one), x) \
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
    closure of index sets is sound only for monomial tensors.
    """
    n = alg.dim
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
            if v := w.residue(alg.mul_sparse(row, {s: 1})):
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
    """Left/right unit laws, and associativity as the module law of A acting
    on itself, scanned by Light's test on the basis triples (i, s, k) with s
    in S = a.generators.

    If (x s) y = x (s y) for all x, y and s in S, then T = {w : (x w) y =
    x (w y) for all x, y} holds S, and for w in T, s in S:
    (x (w s)) y = ((x w) s) y = (x w)(s y) = x (w (s y)) = x ((w s) y)
    by w, s, w, s in turn; so T is closed under right products by S, T = A.
    """
    rep = VerificationReport(subject)
    n = a.dim
    u = a.unit_sparse
    rep.check("unit_law", ((i,) for i in range(n)
                           if a.mul_sparse(u, {i: 1}) != {i: 1}
                           or a.mul_sparse({i: 1}, u) != {i: 1}))
    rep.check("associativity", certified_scan(
        lambda js: module_law_failures(a, a.mult, js), a.generators, range(n)))
    return rep


def counit_law_failures(rows, counit):
    """Indices (w,) with (eps (x) id) rho(e_w) != e_w, for the Sweedler rows
    of a left coaction rho over a coalgebra with counit eps."""
    for w, row in enumerate(rows):
        acc: dict = {}
        for d, w2, c in row:
            if counit[d]:
                sp_add(acc, w2, c * counit[d])
        if acc != {w: 1}:
            yield (w,)


def coassociativity_failures(rows, comul_rows, indices=None):
    """Indices (w,), w in `indices` (every index when None), with
    (Delta (x) id) rho(e_w) != (id (x) rho) rho(e_w), for the Sweedler rows of
    a left coaction rho and of the coproduct Delta."""
    for w in range(len(rows)) if indices is None else indices:
        row = rows[w]
        lhs: dict = {}
        rhs: dict = {}
        for d, w2, c in row:
            for a, b, cc in comul_rows[d]:
                sp_add(lhs, (a, b, w2), c * cc)
            for d2, w3, cc in rows[w2]:
                sp_add(rhs, (d, d2, w3), c * cc)
        if lhs != rhs:
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
    (cell a a2, b2, w2) of mates[a].
    """
    rows, comul = alg.mult._rows, coal.rows
    scans = [(j, [[(ra[a2], b2, w2) for a2, b2, w2 in comul[j] if ra[a2]] for ra in rows])
             for j in right]
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
    """
    algs2 = (alg, alg)
    for i in indices:
        dlt = {(a, b): c for a, b, c in coal.comul_row(i)}
        cop = {(b, a): c for a, b, c in coal.comul_row(i)}
        if tensor_mul_sparse(algs2, r, dlt) != tensor_mul_sparse(algs2, cop, r):
            yield (i,)


def unit_products(alg: StructureAlgebra, legs) -> tuple:
    """({z: z 1}, {z: 1 z}) for z in legs, as tuples of (index, coefficient)."""
    one = alg.unit_sparse
    return ({z: tuple(alg.mul_sparse({z: 1}, one).items()) for z in legs},
            {z: tuple(alg.mul_sparse(one, {z: 1}).items()) for z in legs})


def add_outer3(acc: dict, c, u, v, w) -> None:
    """acc += c u (x) v (x) w for u, v, w sequences of (index, coefficient)."""
    if not (u and v and w):
        return    # a zero leg: no product is formed
    for i, ci in u:
        for j, cj in v:
            cij = c * ci * cj
            for k, ck in w:
                sp_add(acc, (i, j, k), cij * ck)


def hexagon_sides(alg: StructureAlgebra, coal: StructureCoalgebra, r: dict) -> tuple:
    """((Delta (x) id)(R), R^13 R^23, (id (x) Delta)(R), R^13 R^12) for a sparse
    2-leg R keyed by index pairs.

    Over pairs of terms a (x) b, x (x) y of R, R^13 R^23 = sum (a 1) (x) (1 x) (x) (b y)
    and R^13 R^12 = sum (a x) (x) (1 y) (x) (b 1).  By bilinearity these equal the
    products of the legs padded with every term of the unit, for any
    multiplication tensor, unital or not; a 1 and 1 z are formed once per index.
    A term a (x) b meets only the terms x (x) y whose product cell is
    nonempty, (b, y) for R^13 R^23 and (a, x) for R^13 R^12, read off
    alg.support with R grouped by second and by first leg; every pair skipped
    has a zero leg, so the sums are those over every pair.
    """
    times_one, one_times = unit_products(alg, {z for key in r for z in key})
    rows = alg.mult._rows
    right = alg.support[0]
    by_first, by_second = by_leg(r, 0), by_leg(r, 1)
    d_id: dict = {}
    id_d: dict = {}
    r13r23: dict = {}
    r13r12: dict = {}
    for (a, b), c in r.items():
        for j, k, w in coal.comul_row(a):
            sp_add(d_id, (j, k, b), c * w)
        for j, k, w in coal.comul_row(b):
            sp_add(id_d, (a, j, k), c * w)
        ra, rb = rows[a], rows[b]
        for y in meeting(by_second, right[b]):
            if cell := rb[y]:
                for (x, _), cxy in by_second[y]:
                    add_outer3(r13r23, c * cxy, times_one[a], one_times[x], cell)
        for x in meeting(by_first, right[a]):
            if cell := ra[x]:
                for (_, y), cxy in by_first[x]:
                    add_outer3(r13r12, c * cxy, cell, one_times[y], times_one[b])
    return d_id, r13r23, id_d, r13r12


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


def antipode_convolutions(h: HopfData, i: int) -> tuple:
    """(S(h_(1)) h_(2), h_(1) S(h_(2))) for h = e_i, as sparse vectors."""
    s_cols = h.antipode.cols
    left: dict = {}
    right: dict = {}
    for j, k, w in h.coalgebra.comul_row(i):
        for r, ws in s_cols[j].items():
            for t, wm in h.algebra.mul_row(r, k):
                sp_add(left, t, w * ws * wm)
        for r, ws in s_cols[k].items():
            for t, wm in h.algebra.mul_row(j, r):
                sp_add(right, t, w * ws * wm)
    return left, right


def verify_hopf(h: HopfData, subject: str = "hopf") -> VerificationReport:
    """Bialgebra compatibilities and the antipode convolution identities.

    Delta multiplicativity and coassociativity are scanned on S as
    bialgebra_prelude says, and eps multiplicativity on the pairs (i, s), s
    in S, once algebra.associativity has passed: T = {w : eps(x w) = eps(x)
    eps(w) for all x} holds S, and for w in T, s in S: eps(x (w s)) =
    eps((x w) s) = eps(x w) eps(s) = eps(x) eps(w) eps(s) = eps(x) eps(w s),
    so T = A.
    """
    rep = VerificationReport(subject)
    n = h.dim
    gens, multiplicative = bialgebra_prelude(rep, h.algebra, h.coalgebra)

    unit2 = sparse_outer(h.algebra.unit_sparse, h.algebra.unit_sparse)
    rep.add("comult_unital", h.coalgebra.comul_sparse(h.algebra.unit_sparse) == unit2)
    rep.add("comult_multiplicative", multiplicative is None, multiplicative)

    eps = h.counit
    rep.check("counit_multiplicative", certified_scan(
        lambda js: ((i, j) for i in range(n) for j in js
                    if sum(c * eps[k] for k, c in h.algebra.mul_row(i, j))
                    != eps[i] * eps[j]), gens, range(n)))
    rep.add("counit_unital", h.coalgebra.counit_sparse(h.algebra.unit_sparse) == 1)

    # S(h_(1)) h_(2) = eps(h) 1 = h_(1) S(h_(2))
    conv = [antipode_convolutions(h, i) for i in range(n)]
    u = h.algebra.unit_sparse
    rep.check("antipode_left", ((i,) for i in range(n) if conv[i][0] != sp_scale(u, eps[i])))
    rep.check("antipode_right", ((i,) for i in range(n) if conv[i][1] != sp_scale(u, eps[i])))

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
    products by S (see verify_weak_hopf).

    Row i accumulates both sides over j from nonzero terms only (Gustavson's
    row-at-a-time sparse product): the nonempty cells (i, j), and for each
    e_a in f(e_i) and nonempty cell (a, b) the j with e_b in f(e_j), read
    off `holders`; each side is restricted to `right`.  Every pair skipped
    is 0 = 0, so the failures are those of the scan over every pair.
    """
    cols = f.cols
    src_rows, dst_rows = src.mult._rows, dst.mult._rows
    src_side = src.support[1 if src_op else 0]    # the j with e_i e_j nonzero
    dst_side = dst.support[1 if dst_op else 0]    # the b with e_a e_b nonzero
    keep = None if right is None else set(right)
    holders = [[] for _ in range(dst.dim)]        # holders[b]: (j, coefficient of e_b in f(e_j))
    for j in range(src.dim) if keep is None else keep:
        for b, cb in cols[j].items():
            holders[b].append((j, cb))
    for i in range(src.dim):
        acc = defaultdict(dict)    # j -> {k: coefficient of e_k in f(e_i e_j) - f(e_i) f(e_j)}
        for j in src_side[i] if keep is None else keep.intersection(src_side[i]):
            cell = acc[j]
            for m, c in src_rows[j][i] if src_op else src_rows[i][j]:
                for k, w in cols[m].items():
                    cell[k] = cell.get(k, 0) + c * w
        for a, ca in cols[i].items():
            for b in dst_side[a]:
                ab = dst_rows[b][a] if dst_op else dst_rows[a][b]
                for j, cb in holders[b]:
                    cell, c = acc[j], ca * cb
                    for k, w in ab:
                        cell[k] = cell.get(k, 0) - c * w
        for j in sorted(acc):
            if any(acc[j].values()):
                yield (i, j)


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


def check_map(f: LinearMap, src, dst, kinds) -> VerificationReport:
    """Per-kind morphism checks; kinds within {algebra, coalgebra, antipode, injective}."""
    if (f.source_dim, f.target_dim) != (src.dim, dst.dim):
        raise DimensionMismatch("map dims disagree with its source and target")
    rep = VerificationReport("map")
    kinds = set(kinds)
    cols = f.cols
    if "algebra" in kinds:
        sa = src.algebra if isinstance(src, HopfData) else src
        da = dst.algebra if isinstance(dst, HopfData) else dst
        rep.check("algebra_map", algebra_map_failures(f, sa, da))
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

    def conjugacy_classes(self) -> list:
        n = self.order
        seen = [False] * n
        classes = []
        for i in range(n):
            if seen[i]:
                continue
            cls = set()
            for g in range(n):
                cls.add(self.table[self.table[g][i]][self.inv(g)])
            for x in cls:
                seen[x] = True
            classes.append(sorted(cls))
        return classes


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
    """H^op, H^cop or H^opcop, with the matching antipode."""
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


def twisted_product(a: StructureAlgebra, b: StructureAlgebra, tau) -> StructureAlgebra:
    """A (x)_tau B on the flat index x * dim B + y for a twisting map
    tau: B (x) A -> A (x) B given as tau[y][x2], the terms (x3, y3, c) of
    tau(e_y (x) e_x2): (x (x) y)(x2 (x) y2) = x tau(y (x) x2) y2, with unit
    1 (x) 1.  A pair (y, x2) with no terms is skipped; for the terms left,
    x runs over the support of the cells x x3, and only the nonempty cells
    x x3 and y3 y2 are read.  The cells of a row x (x) y and a column block
    x2 (x) B are formed in one (y, x2, x) iteration and written directly.
    The carrier is returned unverified; A # H, the Heisenberg double and
    D(H) are all built here."""
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
                cells: dict = {}    # y2 -> the cell at column x2 (x) e_y2
                for x3, b_cells, c in reads:
                    for k, ck in row[x3]:
                        t, w = k * nb, c * ck
                        for y2, cell_b in b_cells:
                            if (cell := cells.get(y2)) is None:
                                cell = cells[y2] = {}
                            for m, cm in cell_b:
                                cell[t + m] = cell.get(t + m, 0) + w * cm
                plane = planes[x * nb + y]
                for y2, cell in cells.items():
                    plane[x2 * nb + y2] = sorted_cell(cell)
    unit = [0] * n
    for x, cx in a.unit_sparse.items():
        for y, cy in b.unit_sparse.items():
            unit[x * nb + y] = cx * cy
    return StructureAlgebra(n, Tensor3((n, n, n), tuple(map(tuple, planes))), tuple(unit))


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

    # q(c; t1, t3) = t1 -> p_c <- S^{-1}(e_t3), computed once per key
    @cache
    def dragged(c: int, t1: int, t3: int) -> tuple:
        out: dict = {}
        for y in range(n):
            for m1, w1 in alg.mul_row(y, t1):
                acc = 0
                for r, ws in sinv.cols[t3].items():
                    for m2, w2 in alg.mul_row(r, m1):
                        if m2 == c:
                            acc += ws * w2
                if acc != 0:
                    sp_add(out, y, acc * w1)
        return tuple(out.items())

    # tau(e_b (x) p_c) = (b_(1) -> p_c <- S^{-1}(b_(3))) (x) b_(2)
    tau = [[[(y, t2, w * cy) for t1, t2, t3, w in h.coalgebra.comul2_row(b)
             for y, cy in dragged(c, t1, t3)] for c in range(n)] for b in range(n)]
    dual = convolution_algebra(h.coalgebra)
    dalg = twisted_product(dual, alg, tau)

    # the cached S tries the arrows p_a >< s first, s in S_H less each s the
    # rest generate; the certificate is unchanged
    s_h = list(alg.generators)
    for s in alg.generators:
        if set(generating_set(alg, rest := [t for t in s_h if t != s])) <= set(rest):
            s_h = rest
    vars(dalg)["generators"] = generating_set(dalg, [a * n + s for a in range(n) for s in s_h])
    # Delta_D is the tensor coalgebra (H*)^cop (x) H
    dcoal = StructureCoalgebra(nn, co_opposite(dual_coalgebra(alg)).comult.kron(h.comult),
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
    flat index l * dim H + p; the hit tensor hit[p][l][l1] = Delta[l][l1][p]
    is Delta with its legs moved."""
    hit = h.coalgebra.comult.permuted((2, 0, 1))
    out = smash_carrier(h.algebra, dual_hopf(h), hit)
    out.report.require()
    return out
