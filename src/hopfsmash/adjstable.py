"""Comodules over the braided group, Yetter-Drinfeld data, the H (x) W
object, cotensor products, R-adjoint-stable algebras N_W, the Psi/Phi
isomorphism N_D ~ D* # H^op, the decomposition of H_R into minimal H-module
subcoalgebras, and the transport of the weak Hopf structure onto N_D.

Coaction tensors: a left C-comodule stores rho[w][d][w'] (= coefficient of
e_d (x) w' in rho(w)).  A right C-comodule, rho(w) = w' (x) e_d, is a left
C^cop-comodule, so it is a ComoduleData over co_opposite(C) in the same
layout and is checked by the same comodule-law kernels.

A structure read on an invariant subspace (Delta_R and ad on a block D, a
YD summand, N_W's product, C(H*)'s convolutions) goes through one kernel,
exactlin.Subspace.restricted; each caller refuses a value outside by name.
"""

from __future__ import annotations

from functools import cached_property

from .exactlin import (
    LinearMap,
    Record,
    Subspace,
    Tensor3,
    TensorElem,
    commutant_rows,
    kernel_basis,
    rank,
    sp,
    sp_add,
    sp_scale,
    span_basis,
    span_closure,
    split,
)
from .hopfcore import (
    HopfData,
    StructureAlgebra,
    StructureCoalgebra,
    certified_scan,
    check_map,
    co_opposite,
    coassociativity_failures,
    convolution_algebra,
    counit_law_failures,
    end_algebra,
    host_generators,
    map_legs,
    module_law_failures,
    opposite_algebra,
    opposites,
    sweedler_rows,
)
from .modalg import ModuleAlgebraData, SeparabilityData, regular_trace, verify_separability
from .qtriang import (
    BraidedGroupData,
    QTStructure,
    adjoint_action_tensor,
    braided_group_of,
    classify_triangularity,
    hr_dual_separability,
    qt_structure,
    transmuted_coaction,
)
from .report import HypothesisFailure, VerificationReport
from .smashcons import smash_algebra, smash_qt, smash_weak_structure, theta_columns
from .weakhopf import WeakHopfData, WeakQTStructure, almost_triangular_wha_report, verify_weak_qt


# ---------------------------------------------------------------------------
# comodules
# ---------------------------------------------------------------------------

class ComoduleData(Record):
    """A left comodule over the given coalgebra; a right C-comodule is one
    over co_opposite(C)."""

    coalgebra: StructureCoalgebra
    dim: int
    coaction: Tensor3  # (dim, dim C, dim)

    @cached_property
    def rows(self):
        """Sweedler rows ((d, w', c), ...) of rho(e_w), one per w."""
        return sweedler_rows(self.coaction)


def verify_left_comodule(cm: ComoduleData, subject: str = "left_comodule") -> VerificationReport:
    rep = VerificationReport(subject)
    coal = cm.coalgebra
    rep.check("counit_law", counit_law_failures(cm.rows, coal.counit))
    rep.check("coassociativity", coassociativity_failures(cm.rows, coal.rows))
    return rep


def dual_right_comodule(cm: ComoduleData) -> ComoduleData:
    """W* with rho(w*_i) = sum_j w*_j (x) (coefficient tensor of rho_W), a
    right C-comodule held as a left co_opposite(C)-comodule."""
    out = ComoduleData(co_opposite(cm.coalgebra), cm.dim, cm.coaction.permuted((2, 1, 0)))
    verify_left_comodule(out, "dual_right_comodule").require()
    return out


# ---------------------------------------------------------------------------
# Yetter-Drinfeld data and the braided coaction
# ---------------------------------------------------------------------------

class YetterDrinfeldData(Record):
    """Simultaneous left H-module and left H-comodule (over Delta)."""

    host: HopfData
    action: Tensor3    # (dim H, dim V, dim V)
    coaction: Tensor3  # (dim V, dim H, dim V)

    @property
    def dim(self) -> int:
        return self.action.dims[1]


def verify_yd(v: YetterDrinfeldData, subject: str = "yetter_drinfeld") -> VerificationReport:
    rep = VerificationReport(subject)
    h = v.host
    n = v.dim
    one = h.algebra.unit_sparse
    rep.check("action_unital",
              ((x,) for x in range(n) if v.action.act(one, {x: 1}) != {x: 1}))
    rep.check("action_module_law", certified_scan(lambda js: module_law_failures(
        h.algebra, v.action, js), host_generators(h.algebra, h.report), range(h.dim)))
    rep.merge(verify_left_comodule(
        ComoduleData(h.coalgebra, n, v.coaction), "coaction"), "coaction.")
    return rep


class BraidedComoduleResult(Record):
    comodule: ComoduleData
    d_v_basis: tuple
    report: VerificationReport


def yd_to_comodule(v: YetterDrinfeldData, q: QTStructure,
                   bg: BraidedGroupData | None = None) -> BraidedComoduleResult:
    """rho_R(x) = x_<-1> S(R^2) (x) R^1 . x_<0> makes V a left H_R-comodule;
    the generated H-module subcoalgebra D_V is extracted as a subspace, its
    ad-stability read by Subspace.restricted."""
    h = q.host
    bg = braided_group_of(q, bg)
    n, nh = v.dim, h.dim
    cm = ComoduleData(bg.braided_coalgebra, n, transmuted_coaction(q, v.coaction, v.action))
    rep = VerificationReport("yd_to_comodule")
    rep.merge(verify_left_comodule(cm, "rho_R"), "rho_R.")

    by_end = cm.coaction.permuted((0, 2, 1))
    slices = [dict(by_end.row(x, x2)) for x in range(n) for x2 in range(n)]
    coal_r = bg.braided_coalgebra
    basis = span_closure(slices, lambda u: _delta_slices(coal_r, u).values(), nh)
    _, leaves = Subspace(basis, nh).restricted(bg.adjoint_action, LinearMap.identity(nh).cols,
                                               basis)
    rep.add("d_v_is_H_module_subspace", leaves is None, leaves)
    rep.require()
    return BraidedComoduleResult(cm, tuple(basis), rep)


# ---------------------------------------------------------------------------
# the H (x) W object
# ---------------------------------------------------------------------------

class HTensorW(Record):
    h: HopfData
    w: ComoduleData
    dim: int
    action: Tensor3    # (dim H, dim, dim): left multiplication
    coaction: Tensor3  # (dim, dim H, dim): left H_R-comodule

    def as_comodule(self) -> ComoduleData:
        return ComoduleData(self.w.coalgebra, self.dim, self.coaction)


def build_h_tensor_w(w: ComoduleData, h: HopfData,
                     bg: BraidedGroupData | None = None) -> HTensorW:
    """h'(h (x) w) = h'h (x) w; rho(h (x) w) = h_(1) .ad w_<-1> (x) h_(2) (x) w_<0>."""
    nh, nw = h.dim, w.dim
    n = nh * nw
    ad = adjoint_action_tensor(h) if bg is None else bg.adjoint_action
    # m (x) id_W at flat index i dim W + w, as HTensorW.flat
    action = h.mult.kron(Tensor3.from_entries((1, nw, nw), ((0, w, w, 1) for w in range(nw))))

    c_entries = []
    for i in range(nh):
        for ww in range(nw):
            src = i * nw + ww
            for p, pq, c in h.coalgebra.comul_row(i):
                for d in range(nh):
                    for w0, cw in w.coaction.row(ww, d):
                        for m, cm in ad.row(p, d):
                            c_entries.append((src, m, pq * nw + w0, c * cw * cm))
    coaction = Tensor3.from_entries((n, nh, n), c_entries)

    out = HTensorW(h, w, n, action, coaction)
    rep = VerificationReport("h_tensor_w")
    rep.check("module_law", certified_scan(lambda js: module_law_failures(h.algebra, action, js),
                                           host_generators(h.algebra, h.report), range(nh)))
    rep.merge(verify_left_comodule(out.as_comodule(), "braided_coaction"), "braided.")
    rep.require()
    return out


# ---------------------------------------------------------------------------
# cotensor products
# ---------------------------------------------------------------------------

def cotensor(wdual: ComoduleData, m: ComoduleData) -> list:
    """Exact basis of W* [] M = {t : (rho_{W*} (x) id) t = (id (x) rho_M) t},
    for a right C-comodule W* held over co_opposite(C) and a left one M."""
    if wdual.coalgebra != co_opposite(m.coalgebra):
        raise ValueError("cotensor needs W* over co_opposite of M's coalgebra")
    nw, nm = wdual.dim, m.dim
    rows_by_key: dict = {}
    for i, row in enumerate(wdual.rows):
        for d, j, c in row:
            for mm in range(nm):
                sp_add(rows_by_key.setdefault((j, d, mm), {}), i * nm + mm, c)
    for mm, row in enumerate(m.rows):
        for d, m2, c in row:
            for j in range(nw):
                sp_add(rows_by_key.setdefault((j, d, m2), {}), j * nm + mm, -c)
    return kernel_basis(rows_by_key.values(), nw * nm)


# ---------------------------------------------------------------------------
# the R-adjoint-stable algebra N_W
# ---------------------------------------------------------------------------

class AdjointStableAlgebra(Record):
    w: ComoduleData
    htw: HTensorW
    basis: tuple              # cotensor basis vectors in W* (x) H (x) W
    carrier: StructureAlgebra
    ambient: StructureAlgebra    # end_algebra(dim W, H^op), holding the basis


def _amb_terms(v: dict, nh: int, nw: int) -> list:
    """((i, j, w), c) for the terms of a vector of W* (x) H (x) W, whose flat
    index is (i dim H + j) dim W + w."""
    return [(((k // nw) // nh, (k // nw) % nh, k % nw), c) for k, c in v.items()]


def _h_op(h: HopfData, bg: BraidedGroupData) -> HopfData:
    """H^op of bg's host h, derived once per braided group."""
    if "h_op" not in bg.memo:
        bg.memo["h_op"] = opposites(h, "op")
    return bg.memo["h_op"]


def _ambient(nw: int, h: HopfData, bg: BraidedGroupData | None) -> StructureAlgebra:
    """end_algebra(nw, H^op); with bg, formed once per braided group and nw on
    _h_op's algebra and kept in bg.memo under ("ambient", nw)."""
    if bg is None:
        return end_algebra(nw, opposite_algebra(h.algebra))
    key = ("ambient", nw)
    if key not in bg.memo:
        bg.memo[key] = end_algebra(nw, _h_op(h, bg).algebra)
    return bg.memo[key]


def adjoint_stable_algebra(w: ComoduleData, h: HopfData,
                           bg: BraidedGroupData | None = None) -> AdjointStableAlgebra:
    """N_W = W* [] (H (x) W) with the convolution-style product
    x o y = sum v*_l (x) g_l h_j (x) <w*_j, v_l> w_j, the product of the
    ambient End(W*) (x) H^op = end_algebra(dim W, H^op) read on the cotensor by
    Subspace.restricted; closure, associativity and the unit law of the unit
    sum_i w*_i (x) 1 (x) w_i are verified.  With bg, whose host is h, the
    ambient is the one _ambient keeps per dim W, shared by every N_W of that
    dimension: read it, do not modify it."""
    htw = build_h_tensor_w(w, h, bg)
    wd = dual_right_comodule(w)
    basis = cotensor(wd, htw.as_comodule())
    m = len(basis)
    ambient = _ambient(w.dim, h, bg)
    span = Subspace(basis, ambient.dim)
    mult, leaves = span.restricted(ambient.mult, basis, basis)
    if mult is None:
        raise ValueError("product of cotensor basis {}, {} leaves the cotensor".format(*leaves))
    unit_coords = span.coords(ambient.unit_sparse)
    if unit_coords is None:
        raise ValueError("N_W has no unit inside the cotensor subspace")
    carrier = StructureAlgebra(m, mult, tuple(unit_coords.get(p, 0) for p in range(m)))
    carrier.report.require()

    return AdjointStableAlgebra(w, htw, tuple(basis), carrier, ambient)


def nw_direct_sum_report(w: ComoduleData, h: HopfData, components,
                         bg: BraidedGroupData | None = None) -> VerificationReport:
    """When W splits into coaction-stable coordinate blocks, N_W is the direct
    sum of the component algebras: spans add up and cross products vanish."""
    rep = VerificationReport("nw_direct_sum")
    nw, nh = w.dim, h.dim
    full = adjoint_stable_algebra(w, h, bg)
    embedded_all = []
    comp_bases = []
    for comp in components:
        comp = list(comp)
        if any(w2 not in comp for ww in comp for _, w2, _ in w.rows[ww]):
            raise HypothesisFailure("component-coaction-stable", tuple(comp))
        entries = [(a, d, comp.index(w2), c)
                   for a, ww in enumerate(comp) for d, w2, c in w.rows[ww]]
        wi = ComoduleData(w.coalgebra, len(comp),
                          Tensor3.from_entries((len(comp), h.dim, len(comp)), entries))
        ni = adjoint_stable_algebra(wi, h, bg)
        emb = [{(comp[i] * nh + j) * nw + comp[ww]: c
                for (i, j, ww), c in _amb_terms(b, nh, len(comp))} for b in ni.basis]
        comp_bases.append(emb)
        embedded_all.extend(emb)
    rep.add("components_span_nw",
            span_basis(full.basis, full.ambient.dim) == span_basis(embedded_all, full.ambient.dim))
    rep.check("cross_products_vanish",
              ((ci, cj) for ci, bi in enumerate(comp_bases) for cj, bj in enumerate(comp_bases)
               if ci != cj and any(full.ambient.mul_sparse(u, v) for u in bi for v in bj)))
    return rep


def cotensor_right_module(wdual: ComoduleData, v_com: ComoduleData,
                          v_action: Tensor3,
                          n_alg: AdjointStableAlgebra) -> VerificationReport:
    """W* [] V is a right N_W-module via
    (w'* (x) v).(w* (x) h (x) w) = w* (x) h v <w'*, w>; module laws checked
    on the cotensor basis, for an object V with H-action v_action."""
    rep = VerificationReport("cotensor_right_module")
    h = n_alg.htw.h
    nw = n_alg.w.dim
    nh = h.dim
    nv = v_com.dim
    basis_v = cotensor(wdual, v_com)
    span_v = Subspace(basis_v, nw * nv)
    n_basis = n_alg.basis

    def act(t_vec: dict, n_vec: dict) -> dict:
        # t = sum T[i][vv] w*_i (x) v_vv at flat index i dim V + vv
        out: dict = {}
        n_terms = _amb_terms(n_vec, nh, nw)
        for flat, ct in t_vec.items():
            i, vv = divmod(flat, nv)
            for (ap, b, c), cn in n_terms:
                if c != i:
                    continue
                moved = v_action.act({b: 1}, {vv: 1})
                for v2, cm in moved.items():
                    sp_add(out, ap * nv + v2, ct * cn * cm)
        return out

    nn = len(n_basis)
    rep.check("action_preserves_cotensor",
              ((ti, p) for ti, t in enumerate(basis_v) for p in range(nn)
               if not span_v.contains(act(t, n_basis[p]))))
    rep.check("module_law",
              ((ti, p, q) for ti, t in enumerate(basis_v) for p in range(nn) for q in range(nn)
               if act(t, n_alg.ambient.mul_sparse(n_basis[p], n_basis[q]))
               != act(act(t, n_basis[p]), n_basis[q])))
    rep.check("unit_acts_trivially",
              ((ti,) for ti, t in enumerate(basis_v) if act(t, n_alg.ambient.unit_sparse) != t))
    return rep


# ---------------------------------------------------------------------------
# N_D ~ D* # H^op via Psi and Phi
# ---------------------------------------------------------------------------

class SubcoalgebraData(Record):
    """An H-module subcoalgebra D of H_R in explicit coordinates."""

    basis: tuple                     # sparse vectors of H
    coalgebra: StructureCoalgebra    # (Delta_R, eps) in D-coordinates
    ad_coords: Tensor3               # ad_coords[t][q][p]: coefficient of d_p in e_t .ad d_q

    @property
    def dim(self) -> int:
        return len(self.basis)


def subcoalgebra_data(d_basis, q: QTStructure, bg: BraidedGroupData) -> SubcoalgebraData:
    """Delta_R and the adjoint action on D in the coordinates of the given
    basis, read by Subspace.restricted; a value outside D is refused by name."""
    h = q.host
    d_basis = list(d_basis)
    span = Subspace(d_basis, h.dim)
    units, d_units = LinearMap.identity(h.dim).cols, LinearMap.identity(len(d_basis)).cols
    # Delta_R(d_p) in D (x) D, in two stages: each first-leg column
    # (id (x) e^b) Delta_R(d_p) = sum_q cols[p][b][q] d_q lies in D, and then
    # so does each second leg sum_b cols[p][b][q] e_b of sum_q d_q (x) (...);
    # d_p's second legs are read before d_(p+1)'s first legs
    cols, first = span.restricted(bg.comult_R_cop, d_basis, units)
    if first is not None:
        cols, _ = span.restricted(bg.comult_R_cop, d_basis[:first[0]], units)
    comult, second = span.restricted(cols.permuted((0, 2, 1)), d_units[:cols.dims[0]], d_units)
    if comult is None:
        raise HypothesisFailure("D-closed-under-Delta_R-second-leg", second)
    if first is not None:
        raise HypothesisFailure("D-closed-under-Delta_R-first-leg", first)
    ad, leaves = span.restricted(bg.adjoint_action, units, d_basis)
    if ad is None:
        raise HypothesisFailure("D-closed-under-adjoint-action", leaves)
    counit = tuple(h.coalgebra.counit_sparse(v) for v in d_basis)
    return SubcoalgebraData(tuple(d_basis), StructureCoalgebra(len(d_basis), comult, counit), ad)


def dstar_module_algebra(dd: SubcoalgebraData, hop: HopfData) -> ModuleAlgebraData:
    """D* as a left H^op-module algebra: the convolution algebra of (D,
    Delta_R), with the action <d* <<- h, d> = <d*, h .ad d>: action[t][p][r]
    = ad_coords[t][r][p]."""
    mod = ModuleAlgebraData(hop, convolution_algebra(dd.coalgebra),
                            dd.ad_coords.permuted((0, 2, 1)))
    mod.report.require()
    return mod


class PsiPhiResult(Record):
    psi: LinearMap
    phi: LinearMap
    nd: AdjointStableAlgebra
    smash: "object"            # SmashProduct of D* # H^op
    dstar_mod: ModuleAlgebraData
    dd: SubcoalgebraData
    report: VerificationReport


def psi_phi(d_basis, q: QTStructure, bg: BraidedGroupData | None = None) -> PsiPhiResult:
    """Psi(d*_p (x) e_j (x) d_r) = eps(d_r) (1 # e_j)(d*_p # 1) and Phi = Theta,
    mutually inverse algebra isomorphisms between N_D and D* # H^op.

    Psi: (1 # h)(f # 1) = (h_(1) . f) # h_(2) with h . f = f <<- h in H^op,
    so Psi(sum d* (x) h (x) d) = sum eps(d) (d* <<- h_(1)) # h_(2), read off
    the smash product's factor inclusions.  Phi(d* # h) = (d*_<0> <<- S(h_(1)))
    (x) h_(2) (x) d*_<1> is Theta of D* # H^op into End(D*) (x) H^op =
    nd.ambient (smashcons.theta_columns), as S_{H^op}^{-1} = S, read in N_D's
    coordinates.

    D's left coaction is Delta_R|_D, read by Subspace.restricted; its dual
    right coaction on D* forms N_D = D* [] (H (x) D).  A value outside D is
    refused as "D-closed-under-Delta_R-second-leg", a column of Phi outside
    N_D as "phi-coaction-convention" with the column index.  Computed once
    per bg and basis (the given vectors in order), with H^op derived once
    per bg; shared, so read it.
    """
    bg = braided_group_of(q, bg)
    d_basis = list(d_basis)
    key = ("psi_phi", tuple(tuple(sorted(v.items())) for v in d_basis))
    if key in bg.memo:
        return bg.memo[key]
    h = q.host
    nh = h.dim
    dd = subcoalgebra_data(d_basis, q, bg)
    counit = dd.coalgebra.counit
    rep = VerificationReport("psi_phi")

    units = LinearMap.identity(nh).cols
    coaction, leaves = Subspace(d_basis, nh).restricted(bg.comult_R, d_basis, units)
    if coaction is None:
        raise HypothesisFailure("D-closed-under-Delta_R-second-leg", leaves)
    w = ComoduleData(bg.braided_coalgebra, dd.dim, coaction)
    verify_left_comodule(w, "D_as_comodule").require()
    nd = adjoint_stable_algebra(w, h, bg)
    s = smash_algebra(dstar_module_algebra(dd, _h_op(h, bg)))
    rep.add("dimensions_match", nd.carrier.dim == s.carrier.dim,
            (nd.carrier.dim, s.carrier.dim))

    # (1 # e_j)(d*_p # 1) at p dim H + j, the ambient's flat index without d_r
    a_in, h_in = s.factor_inclusions
    swapped = [s.carrier.mul_sparse(h_in.cols[j], a_in.cols[p])
               for p in range(dd.dim) for j in range(nh)]
    on_ambient = LinearMap(nd.ambient.dim, s.carrier.dim,
                           [sp_scale(swapped[k // dd.dim], counit[k % dd.dim])
                            for k in range(nd.ambient.dim)])
    psi = on_ambient.compose(LinearMap(nd.carrier.dim, nd.ambient.dim, nd.basis))

    nd_span = Subspace(nd.basis, nd.ambient.dim)
    phi_cols = [nd_span.coords(col) for col in theta_columns(s, nd.ambient)]
    if None in phi_cols:
        raise HypothesisFailure("phi-coaction-convention", (phi_cols.index(None),))
    phi = LinearMap(s.carrier.dim, nd.carrier.dim, phi_cols)

    rep.add("psi_phi_identity", psi.compose(phi).is_identity())
    rep.add("phi_psi_identity", phi.compose(psi).is_identity())
    rep.merge(check_map(psi, nd.carrier, s.carrier, ("algebra", "injective")), "psi.")
    rep.merge(check_map(phi, s.carrier, nd.carrier, ("algebra", "injective")), "phi.")
    rep.require()
    return bg.memo.setdefault(key, PsiPhiResult(psi, phi, nd, s, s.A_mod, dd, rep))


# ---------------------------------------------------------------------------
# decomposition of H_R into minimal H-module subcoalgebras
# ---------------------------------------------------------------------------

def _delta_slices(coal: StructureCoalgebra, v: dict) -> dict:
    """The nonzero slices of Delta(v): (id (x) e^f) Delta(v) under the key
    ("leg1", f), then (e^f (x) id) Delta(v) under ("leg2", f), f ascending."""
    out: dict = {}
    for (a, b), c in coal.comul_sparse(v).items():
        out.setdefault(("leg1", b), {})[a] = c
        out.setdefault(("leg2", a), {})[b] = c
    return {key: out[key] for key in sorted(out)}


def hit_space(coal: StructureCoalgebra, f: dict, n: int) -> list:
    """Canonical basis of f -> H = span of the left hits f -> e_a =
    (id (x) f) Delta(e_a) over a, for a functional f on the coalgebra coal
    of dimension n."""
    left = coal.hits[0]
    return span_basis([left.act(f, {a: 1}) for a in range(n)], n)


class HrDecomposition(Record):
    blocks: tuple       # tuple of bases (each a tuple of sparse H-vectors)
    idempotents: tuple  # the block idempotents F_i of C(H*), in split order
    fully_split: bool
    report: VerificationReport


def decompose_hr(bg: BraidedGroupData) -> HrDecomposition:
    """Minimal H-module subcoalgebras D_1, ..., D_r of H_R, from the centre:
    C(H*), the functionals vanishing on commutators, is cut into ideals by the
    joint eigenspaces of its left convolutions (conv[i][j][k], the coefficient
    of c_k in c_i * c_j, read by Subspace.restricted); the components F_i of the
    unit eps along those ideals are the block idempotents, and D_i = F_i ->_R
    H_R. fully_split is False, and minimality is not certified, when a
    convolution eigenvalue is irrational and an ideal of C(H*) stays whole.
    Computed once per bg; shared, so read it."""
    if "decompose_hr" in bg.memo:
        return bg.memo["decompose_hr"]
    h = bg.host.host
    n = h.dim
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            diff = dict(h.algebra.mul_row(a, b))
            for k, c in h.algebra.mul_row(b, a):
                sp_add(diff, k, -c)
            rows.append(diff)
    c_basis = kernel_basis(rows, n)
    r = len(c_basis)
    c_space = Subspace(c_basis, n)
    conv, leaves = c_space.restricted(convolution_algebra(h.coalgebra).mult, c_basis, c_basis)
    if conv is None:
        raise HypothesisFailure("C(H*)-subalgebra", leaves)
    c_blocks, fully_split = split([conv.plane(i) for i in range(r)], r)

    # eps, an algebra map, is the unit of C: eps = sum_i F_i with F_i in the
    # i-th ideal, read off by one coordinate solve
    on_c = LinearMap(r, n, c_basis)
    members = [(i, on_c.apply_sparse(v)) for i, blk in enumerate(c_blocks) for v in blk]
    unit = Subspace([m for _, m in members], n).coords(sp(h.counit))
    idems = [{} for _ in c_blocks]
    for p, c in unit.items():
        i, m = members[p]
        for k, x in m.items():
            sp_add(idems[i], k, c * x)
    coal_r = bg.braided_coalgebra
    blocks = [hit_space(coal_r, f, n) for f in idems]

    blocks.sort(key=len)
    rep = VerificationReport("decompose_hr")
    rep.add("fully_split", fully_split, informational=True)
    concat = [v for blk in blocks for v in blk]
    rep.add("direct_sum", len(concat) == n and rank(concat, n) == n)

    def stability_failures():
        """(block, vector, "ad", t) and (block, vector, "delta_r", slice), the
        blocks in their returned order, in scan order: per basis vector, e_t
        .ad v over t, then the slices of Delta_R(v)."""
        for bi, blk in enumerate(blocks):
            span = Subspace(blk, n)
            for vi, v in enumerate(blk):
                for t in range(n):
                    if not span.contains(bg.adjoint_action.act({t: 1}, v)):
                        yield (bi, vi, "ad", t)
                for key, sl in _delta_slices(coal_r, v).items():
                    if not span.contains(sl):
                        yield (bi, vi, "delta_r", *key)

    rep.check("blocks_ad_and_deltaR_stable", stability_failures())

    def minimality_failures():
        # e_t .ad and the right hits c |-> c <- p_k = <p_k, c_(1)> c_(2)
        gens = [*map(bg.adjoint_action.plane, range(n)),
                *map(h.coalgebra.hits[1].plane, range(n))]
        for bi, blk in enumerate(blocks):
            span = Subspace(blk, n)
            restrs = [span.restrict(g) for g in gens]
            if None in restrs:
                yield (bi, "not_invariant")
            elif len(kernel_basis(commutant_rows(restrs, len(blk)), len(blk) ** 2)) != 1:
                yield (bi,)

    rep.check("blocks_minimal", minimality_failures() if fully_split else ())

    ordered = tuple(tuple(blk) for blk in blocks)
    return bg.memo.setdefault("decompose_hr",
                              HrDecomposition(ordered, tuple(idems), fully_split, rep))


# ---------------------------------------------------------------------------
# transport of the weak Hopf structure onto N_D
# ---------------------------------------------------------------------------

def nd_transport_report(d_basis, q: QTStructure, ip,
                        bg: BraidedGroupData | None = None,
                        decomposition: HrDecomposition | None = None) -> VerificationReport:
    """Build D* # H^op with the braided-dual structure maps (x restricted from
    the dual separability idempotent, counit f |-> <f, Lambda_D> eps(h)),
    verify it as an almost-triangular weak Hopf algebra, transport everything
    to the N_D carrier along Psi/Phi and re-verify, and compare Wedderburn
    block multisets of N_D against N_W for the simple subcomodules W of D."""
    h = q.host
    nh = h.dim
    cls = classify_triangularity(q)
    if cls.kind == "quasi_triangular_only":
        raise HypothesisFailure("almost-triangular", cls.witness)
    bg = braided_group_of(q, bg)
    rep = VerificationReport("nd_transport")

    pp = psi_phi(d_basis, q, bg)
    dd = pp.dd
    m = dd.dim

    x_full, xrep = hr_dual_separability(q, ip, bg)
    rep.merge(xrep, "x.")
    on_d = LinearMap(m, nh, dd.basis).transpose()    # e_a |-> sum_p <e_a, d_p> e_p
    x_d = TensorElem.from_entries((m, m), map_legs(on_d, on_d, x_full.terms).items())

    if decomposition is None:
        decomposition = decompose_hr(bg)
    if not decomposition.fully_split:
        raise HypothesisFailure("hr-decomposition-split-over-Q")
    concat = []
    block_of = []
    for bi, blk in enumerate(decomposition.blocks):
        for v in blk:
            concat.append(v)
            block_of.append(bi)
    coords = Subspace(concat, nh).coords(ip.Lambda)
    if coords is None:
        raise HypothesisFailure("Lambda-in-span-of-decomposition")
    d_space = Subspace(dd.basis, nh)
    lam_d: dict = {}
    for idx, c in coords.items():
        if all(d_space.contains(u) for u in decomposition.blocks[block_of[idx]]):
            for i, bv in concat[idx].items():
                sp_add(lam_d, i, c * bv)
    alpha_d = d_space.coords(lam_d)
    if alpha_d is None:
        raise HypothesisFailure("Lambda-projection-in-D")
    sep_d = SeparabilityData(x_d, alpha_d)
    rep.add("alpha_equals_trace_of_dstar", alpha_d == regular_trace(pp.dstar_mod.A))
    rep.merge(verify_separability(pp.dstar_mod, sep_d), "sep.")

    q_op = qt_structure(pp.dstar_mod.host, q.R.flip())

    sws = smash_weak_structure(pp.smash, q_op, sep_d)
    rep.merge(sws.report, "smash.")

    # the displayed closed forms, assembled directly from the braided dual
    s = pp.smash

    def moved(r1: int, x: int) -> dict:
        """d*_x <<- e_{r1} in D* coordinates."""
        return dict(pp.dstar_mod.action.row(r1, x))

    def comult_failures():
        for p in range(m):
            for j in range(nh):
                direct: dict = {}
                for (r1, r2), cr in q.R.items():
                    # x^1 <<- R^1 on the D* leg, then f *_R (...) # h_(1) R^2 (x) x^2 # h_(2)
                    for (x1, x2), cx in x_d.items():
                        mv = moved(r1, x1)
                        if not mv:
                            continue
                        left = pp.dstar_mod.A.mul_sparse({p: 1}, mv)
                        for j1, j2, c in h.coalgebra.comul_row(j):
                            hh = h.algebra.mul_sparse({j1: 1}, {r2: 1})
                            for fa, cfa in left.items():
                                for th, cth in hh.items():
                                    sp_add(direct, (fa * nh + th, x2 * nh + j2),
                                           cr * cx * c * cfa * cth)
                if sws.wha.coalgebra.comul_sparse({p * nh + j: 1}) != direct:
                    yield (p, j)

    rep.check("comult_matches_dual_closed_form", comult_failures())
    rep.check("counit_matches_lambda_pairing",
              ((p, j) for p in range(m) for j in range(nh)
               if sws.wha.counit[p * nh + j] != alpha_d.get(p, 0) * h.counit[j]))

    def antipode_failures():
        lefts = [s.include_h(h.antipode.cols[j]) for j in range(nh)]
        for p in range(m):
            for j in range(nh):
                direct: dict = {}
                for (r1, r2), cr in q.R.items():
                    mv = moved(r1, p)
                    if not mv:
                        continue
                    left = lefts[j]
                    right: dict = {}
                    for fa, cfa in mv.items():
                        sp_add(right, fa * nh + r2, cfa * cr)
                    for key, c in s.carrier.mul_sparse(left, right).items():
                        sp_add(direct, key, c)
                if sws.wha.antipode.cols[p * nh + j] != direct:
                    yield (p, j)

    rep.check("antipode_matches_dual_closed_form", antipode_failures())

    wq, qrep = smash_qt(sws)
    rep.merge(qrep, "qt.")
    at = almost_triangular_wha_report(wq)
    rep.merge(at, "at.")
    rep.add("smash_is_almost_triangular", at.find("almost_triangular").passed)

    # transport along Phi / Psi onto the N_D carrier
    nd = pp.nd
    m2 = nd.carrier.dim
    psi_m, phi_m = pp.psi, pp.phi
    cent = []
    for pidx in range(m2):
        dl = sws.wha.coalgebra.comul_sparse(psi_m.cols[pidx])
        back = map_legs(phi_m, phi_m, dl)
        for (a, b), c in back.items():
            cent.append((pidx, a, b, c))
    comult_n = Tensor3.from_entries((m2, m2, m2), cent)
    counit_n = tuple(sws.wha.coalgebra.counit_sparse(col) for col in psi_m.cols)
    s_n = phi_m.compose(sws.wha.antipode).compose(psi_m)
    nd_wha = WeakHopfData(nd.carrier, StructureCoalgebra(m2, comult_n, counit_n), s_n)
    rep.merge(nd_wha.report, "nd_wha.")
    r_n = map_legs(phi_m, phi_m, wq.Rw.terms)
    rbar_n = map_legs(phi_m, phi_m, wq.Rw_bar.terms)
    nd_wq = WeakQTStructure(nd_wha,
                            TensorElem.from_entries((m2, m2), r_n.items()),
                            TensorElem.from_entries((m2, m2), rbar_n.items()))
    rep.merge(verify_weak_qt(nd_wq), "nd_wqt.")
    at_n = almost_triangular_wha_report(nd_wq)
    rep.merge(at_n, "nd_at.")
    rep.add("nd_is_almost_triangular", at_n.find("almost_triangular").passed)

    # Wedderburn comparison with N_W for the simple (one-dimensional)
    # subcomodules W of D visible on the given basis
    from .repdim import wedderburn_blocks
    nd_blocks = wedderburn_blocks(nd.carrier).blocks
    found = 0

    def proportionality_failures():
        nonlocal found
        for p in range(m):
            stable = True
            uvec: dict = {}
            for d in range(nh):
                for w2, c in nd.w.coaction.row(p, d):
                    if w2 != p and c != 0:
                        stable = False
                    else:
                        sp_add(uvec, d, c)
            if not stable:
                continue
            found += 1
            w1 = ComoduleData(bg.braided_coalgebra, 1,
                              Tensor3.from_entries((1, nh, 1),
                                                   ((0, d, 0, c) for d, c in uvec.items())))
            nw_blocks = wedderburn_blocks(adjoint_stable_algebra(w1, h, bg).carrier).blocks
            if len(nw_blocks) != len(nd_blocks) or any(
                    di * nw_blocks[0] != ei * nd_blocks[0]
                    for di, ei in zip(nd_blocks, nw_blocks)):
                yield (p, tuple(nd_blocks), tuple(nw_blocks))

    rep.check("nw_blocks_proportional_to_nd_blocks", proportionality_failures())
    # found counts the simple subcomodules examined up to the first failure
    rep.add("simple_subcomodules_found", found > 0, (found,), informational=True)
    return rep


def yd_summand_from_block(h: HopfData, block, bg: BraidedGroupData) -> YetterDrinfeldData:
    """A decomposition block of H as a Yetter-Drinfeld module: adjoint action
    and the restriction of the original coproduct (which lands in H (x) D),
    coaction[p][a][r] the coefficient of block_r in (e^a (x) id) Delta(block_p),
    both read by Subspace.restricted."""
    block = list(block)
    span = Subspace(block, h.dim)
    units = LinearMap.identity(h.dim).cols
    action, leaves = span.restricted(bg.adjoint_action, units, block)
    if action is None:
        raise HypothesisFailure("block-ad-stable", leaves)
    coaction, leaves = span.restricted(h.coalgebra.comult, block, units)
    if coaction is None:
        raise HypothesisFailure("block-coproduct-stable", leaves)
    yd = YetterDrinfeldData(h, action, coaction)
    verify_yd(yd, "yd_summand").require()
    return yd
