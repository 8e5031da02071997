"""Numerical Wedderburn block decomposition over the complex field,
Frobenius-Perron dimension reports, the class idempotents of C(H*), and the
divisibility corollary for irreducible Yetter-Drinfeld summands.

This is the only non-exact module: the center and all subspaces are computed
exactly; only the spectrum splitting (a seeded random central element in the
regular representation) runs over complex floats, with loud failure on
near-degenerate spectra.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .exactlin import (
    RAT_ZERO,
    Subspace,
    basis_vec,
    kernel_basis,
    rank,
    solve,
    span_basis,
    split,
    transpose,
    vec_dot,
)
from .hopfcore import (
    HopfData,
    NotSemisimple,
    StructureAlgebra,
    convolution_algebra,
    hit_right,
)
from .modalg import regular_trace
from .qtriang import BraidedGroupData, QTStructure, hr_star_algebra
from .report import HypothesisFailure, VerificationReport

DEFAULT_TOL = 1e-8
GAP_FLOOR = 1e-4
MAX_RESEEDS = 3


@dataclass(frozen=True)
class BlockReport:
    dim: int
    blocks: tuple       # sorted simple-module dimensions d, sum d^2 = dim
    residual: float
    seed: int
    tolerance: float

    def to_dict(self) -> dict:
        return {"dim": self.dim, "blocks": list(self.blocks),
                "residual": self.residual, "seed": self.seed,
                "tolerance": self.tolerance}


def _check_semisimple(a: StructureAlgebra) -> None:
    alpha = regular_trace(a)
    n = a.dim
    gram = tuple(tuple(vec_dot(alpha, a.mul(basis_vec(n, i), basis_vec(n, j)))
                       for j in range(n)) for i in range(n))
    if rank(gram) != n:
        raise NotSemisimple("regular trace form is degenerate: nonzero radical")


def wedderburn_blocks(a: StructureAlgebra, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> BlockReport:
    """Complex Wedderburn block sizes via the spectrum of a seeded random
    central element in the regular representation; center exact, re-seeds up
    to 3 times on near-degenerate spectra, deterministic for a fixed seed."""
    _check_semisimple(a)
    n = a.dim
    center = a.center_basis()
    last_err = None
    for attempt in range(MAX_RESEEDS + 1):
        cur = seed + attempt
        rng = random.Random(cur)
        z = [RAT_ZERO] * n
        for b in center:
            c = rng.randint(1, 97)
            for i, bv in enumerate(b):
                z[i] += c * bv
        lz = a.left_mult_matrix(tuple(z))
        mat = np.array([[float(x) for x in row] for row in lz], dtype=float)
        eig = np.linalg.eigvals(mat)
        scale = max(1.0, float(np.abs(eig).max()))
        clusters: list[list[complex]] = []
        for lam in eig:
            placed = False
            for cl in clusters:
                if abs(lam - cl[0]) <= 1e-6 * scale:
                    cl.append(lam)
                    placed = True
                    break
            if not placed:
                clusters.append([lam])
        centers = [sum(cl) / len(cl) for cl in clusters]
        gap = min((abs(c1 - c2) for i, c1 in enumerate(centers)
                   for c2 in centers[i + 1:]), default=float("inf"))
        if gap <= GAP_FLOOR * scale:
            last_err = f"eigenvalue gap {gap:.2e} below floor (seed {cur})"
            continue
        sizes = sorted(len(cl) for cl in clusters)
        dims = []
        okay = True
        for m in sizes:
            d = round(m ** 0.5)
            if d * d != m:
                okay = False
                break
            dims.append(d)
        if not okay:
            last_err = f"cluster size not a perfect square (seed {cur}): {sizes}"
            continue
        if sum(d * d for d in dims) != n:
            last_err = f"cluster sizes {sizes} do not sum to {n} (seed {cur})"
            continue
        residual = max(max(abs(lam - sum(cl) / len(cl)) for lam in cl)
                       for cl in clusters) / scale
        if residual >= tol:
            last_err = f"cluster spread {residual:.2e} above tolerance (seed {cur})"
            continue
        return BlockReport(n, tuple(sorted(dims)), float(residual), cur, tol)
    raise NotSemisimple(f"block detection failed after {MAX_RESEEDS + 1} seeds: {last_err}")


@dataclass(frozen=True)
class FpdimReport:
    blocks: tuple
    fpdims: tuple
    report: VerificationReport


def fpdim_report(s_wha, a_mod, tol: float = DEFAULT_TOL, seed: int = 0) -> FpdimReport:
    """For each Wedderburn block (= simple module V) of A#H: dim A divides
    dim V and FPdim V = dim V / dim A, an exact integer."""
    from .modalg import is_H_simple
    hs = is_H_simple(a_mod)
    if hs.kind != "certified_simple":
        raise HypothesisFailure("A-is-H-simple", hs.kind)
    rep = VerificationReport("fpdim")
    br = wedderburn_blocks(s_wha.algebra, tol, seed)
    rep.add("residual_below_tolerance", br.residual < tol, (br.residual,))
    na = a_mod.A.dim
    ok = rep.check("dimension_divisibility", ((d, na) for d in br.blocks if d % na != 0))
    fpdims = tuple(d // na for d in itertools.takewhile(lambda d: d % na == 0, br.blocks))
    rep.add("fpdims_positive_integers", ok and all(f >= 1 for f in fpdims))
    return FpdimReport(br.blocks, fpdims, rep)


# ---------------------------------------------------------------------------
# class idempotents of C(H*)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassIdempotents:
    idempotents: tuple    # vectors in H*
    blocks: tuple         # bases of Lambda <- F_i H* in H
    report: VerificationReport


def class_idempotents(h: HopfData, q: QTStructure, ip,
                      bg: BraidedGroupData | None = None) -> ClassIdempotents:
    """Minimal idempotents F_i of the cocommutative-functions subalgebra
    C(H*), each central in H_R^*, with F_i ->_R H_R = Lambda <- F_i H* as
    exact subspaces cross-checked against the H_R decomposition."""
    from .qtriang import transmute
    if bg is None:
        bg = transmute(q)
    n = h.dim
    rep = VerificationReport("class_idempotents")

    rows = []
    for a in range(n):
        for b in range(n):
            diff = [x - y for x, y in zip(h.algebra.mul(basis_vec(n, a), basis_vec(n, b)),
                                          h.algebra.mul(basis_vec(n, b), basis_vec(n, a)))]
            if any(c != 0 for c in diff):
                rows.append(tuple(diff))
    c_basis = kernel_basis(tuple(rows)) if rows else [basis_vec(n, i) for i in range(n)]
    r = len(c_basis)

    dual = convolution_algebra(h.coalgebra)
    c_space = Subspace(c_basis, n)
    prods = [[dual.mul(u, v) for v in c_basis] for u in c_basis]
    if not rep.check("c_hstar_closed_under_convolution",
                     ((i, j) for i in range(r) for j in range(r)
                      if not c_space.contains(prods[i][j]))):
        raise HypothesisFailure("C(H*)-subalgebra")

    # split the commutative algebra C into one-dimensional blocks, by the
    # matrices of left convolution with each basis element of C
    gens = [transpose(tuple(c_space.coords(uv) for uv in row)) for row in prods]
    blocks, fully_split = split(gens, r)
    if not fully_split:
        raise HypothesisFailure("C(H*)-split-over-Q")
    rep.add("c_hstar_splits_into_lines", all(len(b) == 1 for b in blocks), (len(blocks),))
    if not all(len(b) == 1 for b in blocks):
        raise HypothesisFailure("C(H*)-split-over-Q")

    # block representatives in H* coordinates
    reps = []
    for blk in blocks:
        w = [RAT_ZERO] * n
        for ci, bvec in zip(blk[0], c_basis):
            if ci != 0:
                for idx, bv in enumerate(bvec):
                    w[idx] += ci * bv
        reps.append(tuple(w))

    # F_i: the element of C acting as identity on line i and zero elsewhere;
    # one system, solved for each line's right-hand side
    rows_m = []
    for repv in reps:
        cols = [dual.mul(cb, repv) for cb in c_basis]
        rows_m.extend(tuple(col[t] for col in cols) for t in range(n))
    rows_m = tuple(rows_m)
    idems = []
    for i in range(len(reps)):
        rhs = tuple(repv[t] if i == j else RAT_ZERO for j, repv in enumerate(reps)
                    for t in range(n))
        sol = solve(rows_m, rhs)
        if sol is None:
            raise HypothesisFailure("C(H*)-idempotent-solve")
        w = [RAT_ZERO] * n
        for ci, bvec in zip(sol, c_basis):
            if ci != 0:
                for idx, bv in enumerate(bvec):
                    w[idx] += ci * bv
        idems.append(tuple(w))

    rep.check("idempotent", ((i,) for i, f in enumerate(idems) if dual.mul(f, f) != f))
    rep.check("orthogonal",
              ((i, j) for i in range(len(idems)) for j in range(i + 1, len(idems))
               if any(c != 0 for c in dual.mul(idems[i], idems[j]))))
    total = [RAT_ZERO] * n
    for f in idems:
        for i, c in enumerate(f):
            total[i] += c
    rep.add("sum_to_counit", tuple(total) == h.counit)

    ar = hr_star_algebra(bg)
    rep.check("central_in_hr_star",
              ((b,) for f in idems for b in range(n)
               if ar.mul(f, basis_vec(n, b)) != ar.mul(basis_vec(n, b), f)))

    coal_r = bg.braided_coalgebra
    block_bases = []
    ok = True
    for f in idems:
        lhs_vecs = []
        for a in range(n):
            v = [RAT_ZERO] * n
            for j, k, c in coal_r.comul_row(a):
                v[j] += c * f[k]
            lhs_vecs.append(tuple(v))
        lhs = span_basis(lhs_vecs, n)
        rhs_vecs = []
        for b in range(n):
            fb = dual.mul(f, basis_vec(n, b))
            rhs_vecs.append(hit_right(h.coalgebra, ip.Lambda, fb))
        rhs = span_basis(rhs_vecs, n)
        if lhs != rhs:
            ok = False
        block_bases.append(tuple(lhs))
    rep.add("hit_spaces_match", ok)

    from .adjstable import decompose_hr
    dec = decompose_hr(bg)
    dims_a = sorted(len(b) for b in block_bases)
    dims_b = sorted(len(b) for b in dec.blocks)
    rep.add("blocks_match_decomposition_dims", dims_a == dims_b, (dims_a, dims_b))
    dec_spaces = [Subspace(db, n) for db in dec.blocks]
    rep.check("blocks_match_decomposition_spaces",
              ((i,) for i, bb in enumerate(block_bases) if Subspace(bb, n) not in dec_spaces))
    return ClassIdempotents(tuple(idems), tuple(block_bases), rep)


# ---------------------------------------------------------------------------
# the divisibility corollary
# ---------------------------------------------------------------------------

def dv_divisibility(v, q: QTStructure, bg: BraidedGroupData | None = None) -> VerificationReport:
    """dim D_V divides dim V for an irreducible Yetter-Drinfeld module V."""
    from .adjstable import yd_to_comodule
    rep = VerificationReport("dv_divisibility")
    res = yd_to_comodule(v, q, bg)
    dv = len(res.d_v_basis)
    rep.add("d_v_nonzero", dv > 0, (dv,))
    rep.add("divides", v.dim % dv == 0, (dv, v.dim))
    return rep
