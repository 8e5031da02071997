"""Quasi-triangular structures: axiom checks, the Drinfeld element,
triangularity classification, the transmuted braided group, Mueger-center
membership, and the dual separability idempotent of the braided group.

The QT axiom orientation, fixed once and used by every downstream formula:

    R Delta(h) = Delta^cop(h) R
    (Delta (x) id)(R) = R^{13} R^{23}
    (id (x) Delta)(R) = R^{13} R^{12}

All downstream formulas (Delta_R, the smash antipode, the weak R-matrix) are
written in this convention, so it is not configurable.

The braided-group identities are scanned with one argument in the certified
generating set S of the host (see verify_braided_group).  The right action
of H on H_R^* used by the equivalences and the dual separability idempotent
is the adjoint action tensor with its last two legs swapped, a Tensor3 formed
once per braided group (BraidedGroupData.dual_right_action).
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, cached_property

from .exactlin import (
    LinearMap,
    Record,
    Tensor3,
    TensorElem,
    sorted_plane,
    sp_add,
    sp_scale,
    vec_dot,
)
from .hopfcore import (
    HopfData,
    StructureAlgebra,
    StructureCoalgebra,
    by_leg,
    casimir_failures,
    certified_scan,
    convolution,
    convolution_algebra,
    host_generators,
    map_legs,
    measuring_failures,
    meeting,
    module_law_failures,
    multiply_legs,
    opposite_algebra,
    quantum_commutativity_failures,
    r_matrix_rows,
    sparse_outer,
    sweedler_rows,
    tensor_mul_sparse,
    verify_coalgebra,
)
from .report import VerificationReport


class QTStructure(Record):
    """An R-matrix (with its inverse) on a verified Hopf algebra."""

    host: HopfData
    R: TensorElem
    Rinv: TensorElem

    @cached_property
    def report(self) -> VerificationReport:
        """verify_qt(self), computed once; shared, so read it."""
        return verify_qt(self)


def unverified_qt(host: HopfData, R: TensorElem, Rinv: TensorElem | None = None) -> QTStructure:
    """Wrap (H, R) with Rinv defaulting to (S (x) id)(R); nothing is verified."""
    n = host.dim
    if R.dims != (n, n):
        raise ValueError("R must be a 2-leg tensor over H (x) H")
    if Rinv is None:
        Rinv = TensorElem.from_entries(
            (n, n), map_legs(host.antipode, LinearMap.identity(n), R.terms).items())
    return QTStructure(host, R, Rinv)


def qt_structure(host: HopfData, R: TensorElem, Rinv: TensorElem | None = None) -> QTStructure:
    """`unverified_qt`, with the axioms verified on a host whose Hopf report
    passes: a host that is no Hopf algebra is refused by its own row."""
    host.report.require()
    q = unverified_qt(host, R, Rinv)
    q.report.require()
    return q


def trivial_qt(host: HopfData) -> QTStructure:
    """(H, 1 (x) 1)."""
    one = host.algebra.unit_sparse
    R = TensorElem.from_entries((host.dim, host.dim), sparse_outer(one, one).items())
    return qt_structure(host, R, R)


def verify_qt(q: QTStructure, subject: str = "qt") -> VerificationReport:
    """R invertible with inverse Rinv, R Delta = Delta^cop R, and the hexagons.

    Read from the host report h.report: once algebra.associativity and
    algebra.unit_law have passed, R_invertible_left gives R_invertible_right.
    Rbar R = 1 gives Rbar (R x) = x, so x |-> R x is injective on the
    finite-dimensional A (x) A, hence onto: R y = 1 for some y, and Rbar =
    Rbar (R y) = (Rbar R) y = y.  Otherwise R Rbar is formed.  Intertwining is
    scanned on S once Delta is multiplicative too (see intertwining_failures).
    """
    rep = VerificationReport(subject)
    h = q.host
    hrep = h.report
    alg = h.algebra
    algs2 = (alg, alg)
    r = q.R.terms
    rbar = q.Rinv.terms
    one2 = sparse_outer(alg.unit_sparse, alg.unit_sparse)
    left = rep.add("R_invertible_left", tensor_mul_sparse(algs2, rbar, r) == one2)
    assoc = hrep.find("algebra.associativity").passed
    rep.add("R_invertible_right", (left and assoc and hrep.find("algebra.unit_law").passed)
            or tensor_mul_sparse(algs2, r, rbar) == one2)

    r_matrix_rows(rep, alg, h.coalgebra, r, host_generators(alg, hrep))
    return rep


# ---------------------------------------------------------------------------
# Drinfeld element and triangularity
# ---------------------------------------------------------------------------

class DrinfeldElement(Record):
    u: dict
    s_invariant: bool
    central: bool


def drinfeld_element(q: QTStructure) -> DrinfeldElement:
    """u = S(R^2) R^1, with the semisimple-case facts u = S(u), u central reported."""
    h = q.host
    u = multiply_legs(h.algebra, map_legs(h.antipode, LinearMap.identity(h.dim),
                                          q.R.flip().terms))
    s_inv = h.antipode.apply_sparse(u) == u
    central = all(h.algebra.mul_sparse(u, {i: 1}) == h.algebra.mul_sparse({i: 1}, u)
                  for i in range(h.dim))
    return DrinfeldElement(u, s_inv, central)


class TriangularityClass(Record):
    kind: str  # triangular | almost_triangular_strict | quasi_triangular_only
    in_center_tensor_h: bool
    in_h_tensor_center: bool
    witness: tuple | None = None


def classify_triangularity(q: QTStructure) -> TriangularityClass:
    """Exact centrality test on R^21 R against h (x) 1 and 1 (x) h."""
    h = q.host
    alg = h.algebra
    algs2 = (alg, alg)
    z = tensor_mul_sparse(algs2, q.R.flip().terms, q.R.terms)
    if z == sparse_outer(alg.unit_sparse, alg.unit_sparse):
        return TriangularityClass("triangular", True, True)
    left, right = True, True
    wit = None
    for i in range(h.dim):
        hi1 = {(i, u): cu for u, cu in alg.unit_sparse.items()}
        ih1 = {(u, i): cu for u, cu in alg.unit_sparse.items()}
        if left and tensor_mul_sparse(algs2, z, hi1) != tensor_mul_sparse(algs2, hi1, z):
            left, wit = False, (i, "h(x)1")
        if right and tensor_mul_sparse(algs2, z, ih1) != tensor_mul_sparse(algs2, ih1, z):
            right, wit = False, (i, "1(x)h")
    if left != right:
        raise RuntimeError("Z(H)(x)H and H(x)Z(H) memberships of R21R disagree; "
                           "this contradicts the QT axioms")
    if left and right:
        return TriangularityClass("almost_triangular_strict", True, True)
    return TriangularityClass("quasi_triangular_only", left, right, wit)


# ---------------------------------------------------------------------------
# transmuted braided group
# ---------------------------------------------------------------------------

def adjoint_action_tensor(h: HopfData) -> Tensor3:
    """ad[h][x][y]: coefficient of e_y in h .ad x = h_(1) x S(h_(2)).

    A term e_a (x) e_b of Delta(e_i) meets only the x with e_a e_x nonzero,
    and each cell is written sorted into the plane where it is formed."""
    n = h.dim
    rows, right = h.algebra.mult._rows, h.algebra.support[0]
    planes = []
    for i in range(n):
        cells = defaultdict(dict)    # x -> {y: coefficient}
        for a, b, c in h.coalgebra.comul_row(i):
            ra, sb = rows[a], h.antipode.cols[b].items()
            for x in right[a]:
                cell = cells[x]
                for p, cp in ra[x]:
                    rp, ccp = rows[p], c * cp
                    for r, cr in sb:
                        for m, w in rp[r]:
                            cell[m] = cell.get(m, 0) + ccp * cr * w
        planes.append(sorted_plane(n, cells))
    return Tensor3((n, n, n), tuple(planes))


class BraidedGroupData(Record):
    """The transmuted braided group H_R: adjoint action, Delta_R and S_R."""

    host: QTStructure
    adjoint_action: Tensor3
    comult_R: Tensor3
    antipode_R: LinearMap

    @cached_property
    def report(self) -> VerificationReport:
        """verify_braided_group(self), computed once; shared, so read it."""
        return verify_braided_group(self)

    @cached_property
    def braided_coalgebra(self) -> StructureCoalgebra:
        return StructureCoalgebra(self.host.host.dim, self.comult_R, self.host.host.counit)

    @cached_property
    def dual_right_action(self) -> Tensor3:
        """dual_right_action[a][g][l] = <e^g <<- e_a, e_l>, where
        <f <<- h, l> = <f, h .ad l> = ad[a][l][g]: the adjoint action tensor
        with its last two legs swapped, a left action of H^op on H_R^*.
        Shared by every caller: read it, do not modify it."""
        return self.adjoint_action.permuted((0, 2, 1))

    @cached_property
    def comult_R_cop(self) -> Tensor3:
        """Delta_R^cop's tensor, formed once per braided group; shared, so read it."""
        return self.comult_R.permuted((0, 2, 1))

    @cached_property
    def memo(self) -> dict:
        """What decompose_hr, psi_phi (per exact basis, and the host's H^op
        once, under "h_op") and hr_dual_separability (per lambda) derive from
        this braided group, each stored once built and verified; a refused
        input is not stored.  adjoint_stable_algebra adds, under
        ("ambient", dim W), the ambient End(W*) (x) H^op of every N_W of that
        dimension, built once on the stored H^op: it depends on the host and
        dim W only, so it stays when an input is refused, and each N_W
        carrier read on it is verified.  Shared: read it, do not modify it."""
        return {}


def transmuted_coaction(q: QTStructure, coaction: Tensor3, action: Tensor3) -> Tensor3:
    """rho_R(x) = x_<-1> S(R^2) (x) R^1 . x_<0>, for a left coaction tensor
    coaction[x][d][x'] of the host H of q and a left action tensor
    action[h][x][y] of H on the same space: the coaction over H_R.  On
    (Delta, ad) it is Delta_R(h) = h_(1) S(R^2) (x) R^1 .ad h_(2).  Only the
    R^1 acting on x_<0> are met; each cell is written sorted where it is formed."""
    h = q.host
    n, nh = coaction.dims[0], h.dim
    by_first = by_leg(q.R.terms, 0)
    acted = action.support()[1]    # acted[x2]: the r1 with e_r1 . v_x2 nonzero

    @cache
    def first(d: int, r2: int) -> tuple:
        """e_d S(e_r2), as (index, coefficient) pairs."""
        return tuple(h.algebra.mul_sparse({d: 1}, h.antipode.cols[r2]).items())

    planes = []
    for row in sweedler_rows(coaction):
        cells = defaultdict(dict)    # f -> {s: coefficient}, the cell (x, f)
        for d, x2, c in row:
            for r1 in meeting(by_first, acted[x2]):
                if second := action.row(r1, x2):
                    for (_, r2), cr in by_first[r1]:
                        for f, cf in first(d, r2):
                            cell, ccf = cells[f], c * cr * cf
                            for s, cs in second:
                                cell[s] = cell.get(s, 0) + ccf * cs
        planes.append(sorted_plane(nh, cells))
    return Tensor3((n, nh, n), tuple(planes))


def transmute(q: QTStructure) -> BraidedGroupData:
    """Assemble (ad, Delta_R, S_R) and verify the braided-group identities."""
    h = q.host
    n = h.dim
    ad = adjoint_action_tensor(h)
    ad_rows = ad._rows
    r_items = list(q.R.items())
    comult_R = transmuted_coaction(q, h.comult, ad)

    anti = []
    for j in range(n):
        acc: dict = {}
        for (r1, r2), cr in r_items:
            if cell := ad_rows[r1][j]:    # an empty ad cell adds nothing
                inner = h.antipode.apply_sparse(dict(cell))
                for m, cm in h.algebra.mul_sparse({r2: 1}, inner).items():
                    sp_add(acc, m, cr * cm)
        anti.append(acc)
    antipode_R = LinearMap(n, n, anti)

    bg = BraidedGroupData(q, ad, comult_R, antipode_R)
    bg.report.require()
    return bg


def braided_group_of(q: QTStructure, bg: BraidedGroupData | None) -> BraidedGroupData:
    """bg, or transmute(q) when it is None.  A bg transmuted from another
    QTStructure (bg.host is not q) is refused with ValueError: its Delta_R and
    S_R belong to another R."""
    if bg is None:
        return transmute(q)
    if bg.host is not q:
        raise ValueError("bg was not transmuted from q")
    return bg


def verify_braided_group(bg: BraidedGroupData) -> VerificationReport:
    """The braided-group identities of (ad, Delta_R, S_R) over the host H.

    The module law is scanned with its second factor in S =
    h.algebra.generators, and the measuring law and the Delta_R module map
    with the acting element in S once the module law has passed; the
    inductions are in hopfcore.module_law_failures, hopfcore.measuring_failures
    and comult_R_failures below.  They need an associative H with Delta
    multiplicative, which is read from the host's own report h.report (not
    reported here); without it every law is scanned in full.  A reduced scan
    that fails is rerun in full, so witnesses are the full scans' first
    failing cases.  braided_antipode_identity reads the columns of S_R * id
    over (Delta_R, H) (`convolution`) against eps(x) 1.
    """
    rep = VerificationReport("braided_group")
    h = bg.host.host
    n = h.dim
    alg = h.algebra
    ad = bg.adjoint_action
    rep.merge(verify_coalgebra(bg.braided_coalgebra), "braided.")

    rep.check("adjoint_unital", ((i,) for i in range(n)
                                 if ad.act(alg.unit_sparse, {i: 1}) != {i: 1}))

    gens = host_generators(alg, h.report)

    # module law (h g) .ad x = h .ad (g .ad x)
    module_ok = rep.check("adjoint_module_law", certified_scan(
        lambda js: module_law_failures(h.algebra, ad, js), gens, range(n)))
    acting = gens if module_ok else None

    # adjoint measures the product: h .ad (x y) = (h_(1) .ad x)(h_(2) .ad y)
    rep.check("adjoint_measuring", certified_scan(
        lambda hs: measuring_failures(h, ad, alg, hs), acting, range(n)))

    rep.check("comult_R_module_map", certified_scan(
        lambda hs: comult_R_failures(bg, hs), acting, range(n)))

    # S_R(x_(1)) x_(2) = eps(x) 1
    conv = convolution(bg.antipode_R, LinearMap.identity(n), bg.braided_coalgebra, alg).cols
    rep.check("braided_antipode_identity", (
        (i,) for i in range(n) if conv[i] != sp_scale(alg.unit_sparse, h.counit[i])))
    return rep


def comult_R_failures(bg: BraidedGroupData, acting):
    """Pairs (i, x), i in `acting`, with Delta_R(h .ad x) !=
    (h_(1) .ad x_(1)) (x) (h_(2) .ad x_(2)), h = e_i, x_(1) (x) x_(2) = Delta_R(x).

    Once the module law holds and Delta is multiplicative, i in S is
    enough: if T = {w : Delta_R(w .ad x) = (w_(1) .ad x_(1)) (x)
    (w_(2) .ad x_(2)) for all x} holds S, then for w in T, s in S:
    Delta_R((w s) .ad x) = Delta_R(w .ad (s .ad x))
    = (w_(1) .ad (s .ad x)_(1)) (x) (w_(2) .ad (s .ad x)_(2))
    = (w_(1) .ad (s_(1) .ad x_(1))) (x) (w_(2) .ad (s_(2) .ad x_(2)))
    = ((w_(1) s_(1)) .ad x_(1)) (x) ((w_(2) s_(2)) .ad x_(2))
    = ((w s)_(1) .ad x_(1)) (x) ((w s)_(2) .ad x_(2))
    by the module law, w, s, the module law and Delta(w s) = Delta(w) Delta(s);
    so T = H.

    Pair (i, x) accumulates both sides in one flat dict keyed k1 n + k2.  A
    term e_a (x) e_b of Delta(e_i), grouped under each e_p that e_a acts on,
    meets only the terms e_p (x) e_p2 of Delta_R(x), and skips (b, p2) empty.
    """
    h, ad = bg.host.host, bg.adjoint_action
    n, ad_rows, acts, rows_R = h.dim, ad._rows, ad.support()[0], bg.braided_coalgebra.rows
    groups = [by_leg({(p, p2): w for p, p2, w in row}, 0) for row in rows_R]    # Delta_R(x)
    for i in acting:
        mates = by_leg({(p, a, b): c for a, b, c in h.coalgebra.comul_row(i) for p in acts[a]}, 0)
        for x, gx in enumerate(groups):
            acc: dict = {}    # k1 n + k2 -> lhs - rhs at e_k1 (x) e_k2
            for k, ck in ad_rows[i][x]:
                for p, p2, w in rows_R[k]:
                    acc[p * n + p2] = acc.get(p * n + p2, 0) + ck * w
            for p in meeting(gx, mates):
                for (_, a, b), c in mates.get(p, ()):
                    first, rb = ad_rows[a][p], ad_rows[b]
                    for (_, p2), w in gx[p]:
                        if second := rb[p2]:
                            for k1, c1 in first:
                                base, cc1 = k1 * n, c * w * c1
                                for k2, c2 in second:
                                    acc[base + k2] = acc.get(base + k2, 0) - cc1 * c2
            if any(acc.values()):
                yield (i, x)


# ---------------------------------------------------------------------------
# Mueger-center membership of a module algebra
# ---------------------------------------------------------------------------

def double_braiding_failures(alg: StructureAlgebra, r: TensorElem, action: Tensor3,
                             vectors, delta_one: dict):
    """Indices (i,) of the vectors v_i with (R_2^2 R_1^1) . v (x) R_2^1 R_1^2
    != (1_(1) . v) (x) 1_(2), for R_1 = R_2 = r over alg acting by action:
    (f (x) id)(R^21 R) against (f (x) id)(Delta(1)), f(h) = h . v (`map_legs`),
    f formed only at the first legs that map_legs reads; the right-hand side
    is v (x) 1 when Delta(1) = 1 (x) 1."""
    z = tensor_mul_sparse((alg, alg), r.flip().terms, r.terms)
    nh, _, na = action.dims
    ident = LinearMap.identity(alg.dim)
    firsts = {x for x, _ in z} | {x for x, _ in delta_one}
    for i, v in enumerate(vectors):
        f = LinearMap(nh, na, [action.act({x: 1}, v) if x in firsts else {} for x in range(nh)])
        if map_legs(f, ident, z) != map_legs(f, ident, delta_one):
            yield (i,)


def muger_membership(q: QTStructure, act) -> tuple:
    """(R_2^2 R_1^1) . a (x) R_2^1 R_1^2 = a (x) 1 for all basis a of A.

    Also evaluates the equivalent form R^1 . a (x) R^2 = R^2 . a (x) S(R^1)
    and insists the two agree.  Returns (bool, witness_or_None).
    """
    h = q.host
    alg = h.algebra
    action = act.action
    dim_a = action.dims[1]
    one = alg.unit_sparse
    ident = LinearMap.identity(h.dim)
    r, r21 = q.R.terms, q.R.flip().terms

    def antipode_form_failures():
        for a in range(dim_a):
            on_a = act.action_on.plane(a)    # t |-> e_t . a
            if map_legs(on_a, ident, r) != map_legs(on_a, h.antipode, r21):
                yield (a,)

    wit_a = next(double_braiding_failures(alg, q.R, action,
                                          ({a: 1} for a in range(dim_a)),
                                          sparse_outer(one, one)), None)
    if (wit_a is None) != (next(antipode_form_failures(), None) is None):
        raise RuntimeError("the two Mueger-center criteria disagree; "
                           "QT/module preconditions must be violated")
    return (wit_a is None, wit_a)


# ---------------------------------------------------------------------------
# the separability idempotent of the braided dual
# ---------------------------------------------------------------------------

def hr_star_algebra(bg: BraidedGroupData) -> StructureAlgebra:
    """H_R^*: the convolution algebra of (H, Delta_R, eps)."""
    return convolution_algebra(bg.braided_coalgebra)


def hr_dual_separability(q: QTStructure, ip, bg: BraidedGroupData | None = None):
    """x = R^2 -> lambda_(1) (x) S*(lambda_(2)) <<- R^1 in H_R^* (x) H_R^*.

    Returns (x, report); the report checks swap symmetry, the separability
    equation a x = x a in H_R^*, m(x) = 1, and idempotency in the enveloping
    algebra.  Computed once per bg and lambda; shared, so read it.
    """
    bg = braided_group_of(q, bg)
    key = ("hr_dual_separability", tuple(sorted(ip.lam.items())))
    if key in bg.memo:
        return bg.memo[key]
    h = q.host
    n = h.dim
    lam = ip.lam
    mult = h.algebra.mult._rows
    # Delta_{H*}(lambda) = sum_{a, b} <lambda, e_a e_b> e^a (x) e^b
    delta_lam = {(a, b): c for a in range(n) for b in range(n)
                 if (c := vec_dot(lam, dict(mult[a][b])))}
    dual = bg.dual_right_action
    s_star = h.antipode.transpose()    # e^b |-> S*(e^b)
    times = h.algebra.mult.permuted((1, 0, 2))    # plane r: e_i |-> e_i e_r
    entries = []
    for (r1, r2), cr in q.R.items():
        # e^a |-> e_r2 -> e^a = sum_i <e^a, e_i e_r2> e^i, e^b |-> S*(e^b) <<- e_r1
        hit = times.plane(r2).transpose()
        moved = dual.plane(r1).compose(s_star)
        entries.extend((key, cr * c) for key, c in map_legs(hit, moved, delta_lam).items())
    x = TensorElem.from_entries((n, n), entries)

    rep = VerificationReport("hr_dual_separability")
    rep.add("swap_symmetric", x.flip() == x)
    ar = hr_star_algebra(bg)
    x_sp = x.terms
    rep.check("separability_equation", casimir_failures(ar, x_sp))
    rep.add("multiplies_to_unit", multiply_legs(ar, x_sp) == ar.unit_sparse)
    # idempotent in the enveloping algebra A (x) A^op
    rep.add("idempotent_in_enveloping_algebra",
            tensor_mul_sparse((ar, opposite_algebra(ar)), x_sp, x_sp) == x_sp)
    return bg.memo.setdefault(key, (x, rep))


# ---------------------------------------------------------------------------
# the almost-triangularity equivalences
# ---------------------------------------------------------------------------

def almost_triangular_equivalences(q: QTStructure, bg: BraidedGroupData | None = None) -> VerificationReport:
    """Independently evaluate the three computable equivalent conditions:
    (2) almost-triangularity, (3) quantum commutativity of H_R^* over
    (H^op, R^21), (4) the adjoint module lies in the Mueger center; then
    assert they agree."""
    h = q.host
    bg = braided_group_of(q, bg)
    rep = VerificationReport("almost_triangular_equivalences")

    cls = classify_triangularity(q)
    cond2 = cls.kind in ("triangular", "almost_triangular_strict")
    rep.add("cond2_almost_triangular", cond2, informational=True)

    cond3 = rep.check("cond3_hr_dual_quantum_commutative",
                      quantum_commutativity_failures(q.R.flip(), hr_star_algebra(bg),
                                                     bg.dual_right_action),
                      informational=True)

    from .modalg import ModuleAlgebraData    # modalg imports qtriang at top
    adjoint = ModuleAlgebraData(h, h.algebra, bg.adjoint_action)
    cond4, wit4 = muger_membership(q, adjoint)
    rep.add("cond4_adjoint_in_muger_center", cond4, wit4, informational=True)

    rep.add("conditions_agree", cond2 == cond3 == cond4,
            (cond2, cond3, cond4) if not (cond2 == cond3 == cond4) else None)
    return rep
