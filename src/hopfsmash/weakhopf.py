"""Weak bialgebras and weak Hopf algebras: axiom verifiers, counital maps,
weak quasi-triangular structures, the almost-triangular equivalences, weak
Hopf morphism checks, and groupoid algebras.

The axiom set is the Boehm-Nill-Szlachanyi one, taken exactly in the form the
smash-product construction proves it: weak comultiplicativity of the unit,
both weak counit identities, and the three antipode axioms through the
counital maps eps_s(h) = 1_(1) eps(h 1_(2)), eps_t(h) = eps(1_(1) h) 1_(2).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .exactlin import (
    Echelon,
    LinearMap,
    Record,
    Tensor3,
    TensorElem,
    Subspace,
    sp_add,
    span_basis,
)
from .hopfcore import (
    HopfData,
    StructureAlgebra,
    StructureCoalgebra,
    algebra_map_failures,
    bialgebra_prelude,
    by_leg,
    certified_scan,
    check_map,
    coalgebra_map_failures,
    comult_leg,
    convolution,
    host_generators,
    leg_map,
    padded_product,
    r_matrix_rows,
    tensor_mul_sparse,
)
from .qtriang import adjoint_action_tensor, double_braiding_failures
from .report import VerificationReport


class WeakHopfData(HopfData):
    """Same carrier as HopfData, held to the weak axioms instead."""

    @staticmethod
    def from_hopf(h: HopfData) -> "WeakHopfData":
        return WeakHopfData(h.algebra, h.coalgebra, h.antipode)

    @cached_property
    def report(self) -> VerificationReport:
        """verify_weak_hopf(self), not HopfData's strong axioms; shared, so read it."""
        return verify_weak_hopf(self)

    @cached_property
    def delta_one(self) -> dict:
        return self.coalgebra.comul_sparse(self.algebra.unit_sparse)

    @cached_property
    def _eps_of_prod(self) -> tuple:
        """The rows of the counit form T[i][j] = eps(e_i e_j), read off the nonempty cells."""
        eps, rows = self.counit, self.algebra.mult._rows
        return tuple(
            {j: c for j in js if (c := sum(w * eps[k] for k, w in rows[i][j]))}
            for i, js in enumerate(self.algebra.support[0]))

    @cached_property
    def counit_form(self) -> LinearMap:
        """The counit form T as the map whose column i is row i of T."""
        return LinearMap(self.dim, self.dim, self._eps_of_prod)

    @cached_property
    def counit_form_pivots(self) -> tuple:
        """(F, H): indices of rows of T = _eps_of_prod, T[f][h] = eps(e_f e_h),
        that span its row space, and of columns that span its column space,
        from one elimination of T's rows in index order.  F is the rows with a
        nonzero residue, the greedy independent rows, which are the pivot
        columns of the RREF of T's columns; H is the leads of the echelon,
        the pivot columns of the RREF of T's rows."""
        ech = Echelon()
        fs = []
        for f, row in enumerate(self._eps_of_prod):
            if row and (v := ech.residue(dict(row))):
                ech.add(v)
                fs.append(f)
        return tuple(fs), tuple(sorted(ech.rows))

    @cached_property
    def eps_s(self) -> LinearMap:
        """The source counital map eps_s(h) = 1_(1) eps(h 1_(2)): the first
        legs of Delta(1) beside row h of the counit form T, as (T^t L^t)^t for
        L = leg_map(Delta(1)): the product reads T^t only at Delta(1)'s
        second legs."""
        legs = leg_map(self.delta_one, self.dim).transpose()
        return self.counit_form.transpose().compose(legs).transpose()

    @cached_property
    def eps_t(self) -> LinearMap:
        """The target counital map eps_t(h) = eps(1_(1) h) 1_(2): the second
        legs of Delta(1) beside column h of the counit form T, as (T L)^t:
        the product reads T only at Delta(1)'s first legs."""
        return self.counit_form.compose(leg_map(self.delta_one, self.dim)).transpose()

    @cached_property
    def source_basis(self) -> tuple:
        return tuple(span_basis(self.eps_s.cols, self.dim))

    @cached_property
    def target_basis(self) -> tuple:
        return tuple(span_basis(self.eps_t.cols, self.dim))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def weak_counit_failures(w: WeakHopfData, swap: bool, fs, hs):
    """Basis triples (f, g, h), f in fs, h in hs, one per pair (f, g) at its
    least h, with E(f, g, h) = eps((f g) h) - sum_ab Delta(g)_ab T[f][a] T[b][h]
    != 0 for the counit form T[f][h] = eps(e_f e_h): eps(f g h) != eps(f g_(1))
    eps(g_(2) h), or with swap (a <-> b) eps(f g_(2)) eps(g_(1) h).

    F, H = w.counit_form_pivots decide every triple.  Fix f and g: E = sum_m
    gamma_m T[m][h] for gamma = e_f e_g - sum_ab Delta(g)_ab T[f][a] e_b, so E
    is linear in the column T[.][h] and vanishes for all h once it does on H;
    this needs no hypothesis.  Fix g and h: on an associative algebra
    eps((f g) h) = eps(f (g h)) = T[f] . (g h), so E is linear in the row T[f]
    and vanishes for all f once it does on F."""
    t = w._eps_of_prod
    alg, coal = w.algebra, w.coalgebra
    t_on_hs = [{h: row[h] for h in hs if h in row} for row in t]
    for f in fs:
        tf = t[f]
        for g in range(w.dim):
            diff: dict = {}
            for m, c in alg.mul_row(f, g):
                for h, x in t_on_hs[m].items():
                    sp_add(diff, h, c * x)
            for a, b, c in coal.comul_row(g):
                if swap:
                    a, b = b, a
                if a in tf:
                    for h, x in t_on_hs[b].items():
                        sp_add(diff, h, -c * tf[a] * x)
            if diff:
                yield (f, g, min(diff))


def unit_weak_comult_sides(w: WeakHopfData) -> tuple:
    """(Delta (x) id) Delta(1) and the products (Delta(1) (x) 1)(1 (x) Delta(1))
    and (1 (x) Delta(1))(Delta(1) (x) 1), by `comult_leg` and `padded_product`."""
    alg, d1 = w.algebra, w.delta_one
    return (comult_leg(w.coalgebra, d1, 0), padded_product(alg, d1, (0, 1), d1, (1, 2)),
            padded_product(alg, d1, (1, 2), d1, (0, 1)))


def verify_weak_bialgebra(w: WeakHopfData, subject: str = "weak_bialgebra") -> VerificationReport:
    """Delta multiplicative, weak unit comultiplicativity (both orders), and
    both weak counit identities on all basis triples.

    Delta multiplicativity and coassociativity are scanned on S as
    bialgebra_prelude says; neither induction needs a unit or counit law.
    The weak counit identities are scanned on F x A x H (F = all indices
    without associativity); see weak_counit_failures."""
    rep = VerificationReport(subject)
    n = w.dim
    gens, multiplicative = bialgebra_prelude(rep, w.algebra, w.coalgebra)
    rep.add("comult_multiplicative", multiplicative is None, multiplicative)

    lhs, order1, order2 = unit_weak_comult_sides(w)
    rep.add("unit_weak_comult_order1", lhs == order1)
    rep.add("unit_weak_comult_order2", lhs == order2)

    fs, hs = w.counit_form_pivots
    reduced, full = (range(n) if gens is None else fs, hs), (range(n), range(n))
    for name, swap in (("weak_counit_identity_1", False), ("weak_counit_identity_2", True)):
        rep.check(name, certified_scan(
            lambda fh, swap=swap: weak_counit_failures(w, swap, *fh), reduced, full))
    return rep


class CounitalData(Record):
    eps_s: LinearMap
    eps_t: LinearMap
    source_basis: tuple
    target_basis: tuple
    report: VerificationReport


def counital_data(w: WeakHopfData) -> CounitalData:
    """Counital maps with exact image bases; checks idempotency, closure of the
    unital subalgebras (Subspace.restricted) and that the two images commute."""
    rep = VerificationReport("counital")
    es, et, s = w.eps_s, w.eps_t, w.antipode
    rep.add("eps_s_idempotent", es.compose(es) == es)
    rep.add("eps_t_idempotent", et.compose(et) == et)
    src, tgt = w.source_basis, w.target_basis
    src_space, tgt_space = Subspace(src, w.dim), Subspace(tgt, w.dim)
    rep.add("source_contains_unit", src_space.contains(w.algebra.unit_sparse))
    rep.add("target_contains_unit", tgt_space.contains(w.algebra.unit_sparse))
    for name, space, basis in (("source", src_space, src), ("target", tgt_space, tgt)):
        _, leaves = space.restricted(w.algebra.mult, basis, basis)
        rep.add(f"{name}_closed_under_product", leaves is None, leaves)
    mul = w.algebra.mul_sparse
    rep.check("source_target_commute",
              ((i, j) for i, u in enumerate(src) for j, v in enumerate(tgt)
               if mul(u, v) != mul(v, u)))
    # standard consequences, as exact identities of maps
    rep.add("eps_t_compose_S", et.compose(s) == et.compose(es))
    rep.add("S_compose_eps_s", s.compose(es) == et.compose(s))
    return CounitalData(es, et, src, tgt, rep)


def verify_weak_hopf(w: WeakHopfData, subject: str = "weak_hopf") -> VerificationReport:
    """Weak bialgebra axioms plus the three antipode axioms; reports whether
    S is an anti-algebra map, S(e_i e_j) = S(e_j) S(e_i) and S(1) = 1, and an
    anti-coalgebra map, Delta(S(h)) = S(h_(2)) (x) S(h_(1)) and eps S = eps.

    Each antipode row reads the columns of a convolution (`convolution`):
    S * id against eps_s, id * S against eps_t, and (S * id) * S against S.
    The last is the sum of c S(e_p) e_q S(e_k) over the terms c e_p (x) e_q
    (x) e_k of (Delta (x) id) Delta(e_i), regrouped by the bilinearity of the
    product alone; no axiom is used, so it is exact on broken inputs too.

    The two anti-laws are the map-law scans of check_map with the product,
    or the coproduct, read swapped in place (algebra_map_failures,
    coalgebra_map_failures); no opposite tensor is built.  Once associativity
    has passed, j in S = alg.generators is enough for the anti-algebra law:
    if T = {w : S(x w) = S(w) S(x) for all x} holds S, then for w in T, s in
    S: S(x (w s)) = S((x w) s) = S(s) S(x w) = S(s) S(w) S(x) = S(w s) S(x)
    by s, w and s in turn; so T = A."""
    rep = VerificationReport(subject)
    rep.merge(verify_weak_bialgebra(w), "wba.")
    n = w.dim
    alg, coal = w.algebra, w.coalgebra
    gens = alg.generators if rep.find("wba.algebra.associativity").passed else None
    s, s_cols = w.antipode, w.antipode.cols

    # S(h_(1)) h_(2) = eps_s(h), h_(1) S(h_(2)) = eps_t(h), S(h_(1)) h_(2) S(h_(3)) = S(h)
    ident = LinearMap.identity(n)
    s_id = convolution(s, ident, coal, alg)
    for name, conv, want in (("antipode_source", s_id, w.eps_s),
                             ("antipode_target", convolution(ident, s, coal, alg), w.eps_t),
                             ("antipode_triple", convolution(s_id, s, coal, alg), s)):
        rep.check(name, ((i,) for i in range(n) if conv.cols[i] != want.cols[i]))

    unit = alg.unit_sparse
    rep.check("antipode_anti_algebra", itertools.chain(
        certified_scan(lambda js: algebra_map_failures(s, alg, alg, js, dst_op=True),
                       gens, range(n)),
        [("unit",)] if s.apply_sparse(unit) != unit else []), informational=True)
    rep.check("antipode_anti_coalgebra", itertools.chain(
        coalgebra_map_failures(s, coal, coal, cop=True),
        ((i, "counit") for i in range(n) if coal.counit_sparse(s_cols[i]) != w.counit[i])),
        informational=True)
    return rep


# ---------------------------------------------------------------------------
# weak quasi-triangular structures
# ---------------------------------------------------------------------------

class WeakQTStructure(Record):
    host: WeakHopfData
    Rw: TensorElem
    Rw_bar: TensorElem


def verify_weak_qt(wq: WeakQTStructure, subject: str = "weak_qt") -> VerificationReport:
    """Rbar R = Delta(1), R Rbar = Delta^cop(1), R Delta = Delta^cop R (on S once
    w.report allows, see intertwining_failures) and the hexagons.  Both inverse
    laws are formed: as Delta(1) != 1 (x) 1, verify_qt's argument fails here."""
    rep = VerificationReport(subject)
    w = wq.host
    alg, coal = w.algebra, w.coalgebra
    algs2 = (alg, alg)
    r = wq.Rw.terms
    rbar = wq.Rw_bar.terms
    d1 = w.delta_one
    d1cop = {(b, a): c for (a, b), c in d1.items()}
    rep.add("rbar_r_is_delta_one", tensor_mul_sparse(algs2, rbar, r) == d1)
    rep.add("r_rbar_is_delta_cop_one", tensor_mul_sparse(algs2, r, rbar) == d1cop)

    r_matrix_rows(rep, alg, coal, r, host_generators(alg, w.report, "wba."))

    corner = tensor_mul_sparse(algs2, tensor_mul_sparse(algs2, d1cop, r), d1)
    rep.add("corner_support", corner == r, informational=True)
    return rep


def almost_triangular_wha_report(wq: WeakQTStructure,
                                 subject: str = "almost_triangular_wha") -> VerificationReport:
    """Conditions (2)-(6) of the almost-triangular equivalence, evaluated
    independently and checked for mutual consistency.

    Condition (6) asks z = R^21 R to commute with every corner
    C_ij = (Delta(1)(e_i (x) e_j))Delta(1).  By bilinearity alone C_ij is the
    sum, over pairs of terms a (x) b and a' (x) b' of Delta(1), of
    (e_a e_i) e_a' (x) (e_b e_j) e_b'; such a summand is 0 unless some e_k in
    the cell (a, i) has a nonempty cell (k, a') and some e_l in the cell
    (b, j) one (l, b').  A pair (i, j) that no two terms reach so has C_ij = 0,
    both sides 0, and cannot fail; the scan forms only the reached pairs, in
    order, so its first failing pair is that of all n^2.  No associativity
    is used: the shortcut e_i e_a' != 0 would assume (e_a e_i) e_a' =
    e_a (e_i e_a') and drop reachable corners on a host that is not
    associative.  Delta(1) and z, the right operands of every corner, are
    grouped by first leg once."""
    rep = VerificationReport(subject)
    w = wq.host
    n = w.dim
    alg = w.algebra
    algs2 = (alg, alg)
    z = tensor_mul_sparse(algs2, wq.Rw.flip().terms, wq.Rw.terms)

    hs = list(w.source_basis)
    ht = list(w.target_basis)
    c_hs = alg.centralizer_basis(hs)
    cc_hs = Echelon(alg.centralizer_basis(c_hs))
    c_ht = alg.centralizer_basis(ht)
    cc_ht = Echelon(alg.centralizer_basis(c_ht))

    # membership: an empty residue of a zero-free copy
    z_map = leg_map(z, n)
    cond2 = not any(cc_hs.residue({j: x for j, x in col.items() if x}) for col in z_map.cols)
    cond3 = not any(cc_ht.residue({j: x for j, x in row.items() if x})
                    for row in z_map.transpose().cols)
    cond4 = cond2 and cond3
    rep.add("cond2_z_in_ccHs_tensor_H", cond2, informational=True)
    rep.add("cond3_z_in_H_tensor_ccHt", cond3, informational=True)
    rep.add("cond4_both", cond4, informational=True)

    d1 = w.delta_one
    cond5 = rep.check("cond5_cHs_in_muger_center", double_braiding_failures(
        alg, wq.Rw, adjoint_action_tensor(w), c_hs, d1), informational=True)

    def corner_failures():
        # only the pairs (i, j) that two terms of Delta(1) reach (see above):
        # reached[a, a2] lists the i with some e_k in the cell (a, i) whose
        # cell (k, a2) is nonempty
        rows = alg.mult._rows
        right, left = alg.support
        sides = [{key[leg] for key in d1} for leg in (0, 1)]
        lefts = {x: set(left[x]) for side in sides for x in side}
        reached = {(a, a2): [i for i in right[a]
                             if not lefts[a2].isdisjoint(k for k, _ in rows[a][i])]
                   for side in sides for a in side for a2 in side}
        pairs = {p for a, b in d1 for a2, b2 in d1
                 for p in itertools.product(reached[a, a2], reached[b, b2])}
        d1_groups, z_groups = by_leg(d1, 0), by_leg(z, 0)
        for i, j in sorted(pairs):
            corner = tensor_mul_sparse(
                algs2, tensor_mul_sparse(algs2, d1, {(i, j): 1}), d1, d1_groups)
            if tensor_mul_sparse(algs2, z, corner) != tensor_mul_sparse(algs2, corner, z,
                                                                        z_groups):
                yield (i, j)

    cond6 = rep.check("cond6_z_central_in_corner", corner_failures(), informational=True)

    agree = cond2 == cond3 == cond4 == cond5 == cond6
    rep.add("conditions_agree", agree,
            None if agree else (cond2, cond3, cond4, cond5, cond6))
    rep.add("almost_triangular", cond6, informational=True)
    return rep


def check_wha_morphism(f, src: WeakHopfData, dst: WeakHopfData) -> VerificationReport:
    """Algebra map + coalgebra map + antipode-commuting + injective."""
    return check_map(f, src, dst, ("algebra", "coalgebra", "antipode", "injective"))


# ---------------------------------------------------------------------------
# groupoids
# ---------------------------------------------------------------------------

class GroupoidData(Record):
    """Finite groupoid: morphisms with source/target, partial composition."""

    n_objects: int
    sources: tuple
    targets: tuple
    compose: tuple   # compose[i][j] = index of m_i after m_j, or None
    identities: tuple
    inverses: tuple

    @property
    def n_morphisms(self) -> int:
        return len(self.sources)

    def validate(self) -> None:
        n, n_obj = self.n_morphisms, self.n_objects
        if len(self.compose) != n:
            raise ValueError(f"groupoid compose has {len(self.compose)} rows, expected {n}")
        for field, table, length, bound, partial in (
                ("sources", self.sources, n, n_obj, False),
                ("targets", self.targets, n, n_obj, False),
                ("identities", self.identities, n_obj, n, False),
                ("inverses", self.inverses, n, n, False),
                *((f"compose[{i}]", row, n, n, True) for i, row in enumerate(self.compose))):
            if len(table) != length:
                raise ValueError(f"groupoid {field} has length {len(table)}, expected {length}")
            # an index is an int, never a bool or a float that equals one
            bad = next((i for i, x in enumerate(table) if not (
                type(x) is int and 0 <= x < bound or partial and x is None)), None)
            if bad is not None:
                raise ValueError(
                    f"groupoid {field}[{bad}] = {table[bad]!r} is not an index below {bound}")
        for i in range(n):
            for j in range(n):
                defined = self.sources[i] == self.targets[j]
                if (self.compose[i][j] is not None) != defined:
                    raise ValueError(f"composability pattern broken at {(i, j)}")
                if defined:
                    k = self.compose[i][j]
                    if self.sources[k] != self.sources[j] or self.targets[k] != self.targets[i]:
                        raise ValueError(f"composite endpoints broken at {(i, j)}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ij = self.compose[i][j]
                    jk = self.compose[j][k]
                    left = self.compose[ij][k] if ij is not None and jk is not None else None
                    right = self.compose[i][jk] if ij is not None and jk is not None else None
                    if (ij is None) != (jk is None):
                        continue
                    if ij is not None and left != right:
                        raise ValueError(f"groupoid not associative at {(i, j, k)}")
        for o, e in enumerate(self.identities):
            if self.sources[e] != o or self.targets[e] != o:
                raise ValueError(f"identity of object {o} has wrong endpoints")
        for i in range(n):
            inv = self.inverses[i]
            if self.compose[i][inv] != self.identities[self.targets[i]]:
                raise ValueError(f"inverse law broken at {i}")
            if self.compose[inv][i] != self.identities[self.sources[i]]:
                raise ValueError(f"inverse law broken at {i}")


def groupoid_wha(g: GroupoidData) -> WeakHopfData:
    """Groupoid algebra: product = composition or 0, Delta(m) = m (x) m,
    eps(m) = 1, S(m) = m^{-1}; verified as a weak Hopf algebra."""
    g.validate()
    n = g.n_morphisms
    entries = []
    for i in range(n):
        for j in range(n):
            k = g.compose[i][j]
            if k is not None:
                entries.append((i, j, k, 1))
    mult = Tensor3.from_entries((n, n, n), entries)
    unit = [0] * n
    for e in g.identities:
        unit[e] = 1
    comult = Tensor3.from_entries((n, n, n), ((i, i, i, 1) for i in range(n)))
    counit = (1,) * n
    anti = LinearMap(n, n, tuple({g.inverses[j]: 1} for j in range(n)))
    w = WeakHopfData(StructureAlgebra(n, mult, tuple(unit)),
                     StructureCoalgebra(n, comult, counit), anti)
    w.report.require()
    return w


def transformation_groupoid(table, point_action) -> GroupoidData:
    """G x X with (g, x): x -> g.x and (g, x) o (h, y) = (gh, y) when x = h.y."""
    npts = len(point_action[0])
    morphs = [(g, x) for g in range(table.order) for x in range(npts)]
    idx = {m: a for a, m in enumerate(morphs)}
    compose = []
    for (g, x) in morphs:
        row = []
        for (h, y) in morphs:
            if x == point_action[h][y]:
                row.append(idx[(table.table[g][h], y)])
            else:
                row.append(None)
        compose.append(tuple(row))
    return GroupoidData(
        n_objects=npts,
        sources=tuple(x for (_, x) in morphs),
        targets=tuple(point_action[g][x] for (g, x) in morphs),
        compose=tuple(compose),
        identities=tuple(idx[(table.identity, x)] for x in range(npts)),
        inverses=tuple(idx[(table.inv(g), point_action[g][x])] for (g, x) in morphs),
    )
