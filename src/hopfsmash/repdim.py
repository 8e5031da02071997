"""Exact Wedderburn block sizes over the algebraic closure, Frobenius-Perron
dimension reports, the class idempotents of C(H*), and the divisibility
corollary for irreducible Yetter-Drinfeld summands.

Everything here is exact: block sizes come from the minimal polynomial of a
seeded central element on the centre and the power sums of the regular
trace, certified against dim Z(A) and dim A.
"""

from __future__ import annotations

import itertools
import random
from math import isqrt

from .adjstable import HrDecomposition, decompose_hr, hit_space, yd_to_comodule
from .exactlin import (
    LinearMap,
    Record,
    Subspace,
    _min_poly,
    _poly_gcd,
    sp,
    sp_add,
    span_basis,
    vec_dot,
)
from .hopfcore import (
    HopfData,
    NotSemisimple,
    StructureAlgebra,
    convolution_algebra,
)
from .modalg import is_H_simple, regular_trace, trace_form
from .qtriang import BraidedGroupData, QTStructure, braided_group_of, hr_star_algebra
from .report import HypothesisFailure, VerificationReport

MAX_RESEEDS = 3


class BlockReport(Record):
    dim: int
    blocks: tuple       # sorted simple-module dimensions d, sum d^2 = dim
    seed: int

    def to_dict(self) -> dict:
        return {"dim": self.dim, "blocks": list(self.blocks), "seed": self.seed}


def _check_semisimple(a: StructureAlgebra) -> tuple:
    """The regular trace alpha of a; NotSemisimple when its trace form is
    degenerate."""
    alpha = regular_trace(a)
    if trace_form(a, alpha).rank() != a.dim:
        raise NotSemisimple("regular trace form is degenerate: nonzero radical")
    return alpha


def wedderburn_blocks(a: StructureAlgebra, *, seed: int = 0) -> BlockReport:
    """Exact Wedderburn block sizes d_i of a semisimple algebra over the
    algebraic closure; deterministic for a fixed seed.

    A seeded central z = sum_i lambda_i e_i has power sums p_m = alpha(z^m) =
    sum_i d_i^2 lambda_i^m under the regular trace alpha. If the minimal
    polynomial mu of L_z on Z(A) has degree r = dim Z(A), the lambda_i are
    distinct, and the polynomial part Q of mu(x) sum_m p_m x^(-m-1) has
    Q(lambda_i) = d_i^2 mu'(lambda_i); so deg gcd(mu, Q - d^2 mu') blocks have
    size d, rational lambda_i or not. Otherwise z is re-seeded."""
    alpha = _check_semisimple(a)
    n = a.dim
    center = a.center_basis()
    r = len(center)
    zspace = Subspace(center, n)
    on_center = LinearMap(r, n, center)
    for cur in range(seed, seed + MAX_RESEEDS + 1):
        rng = random.Random(cur)
        z = on_center.apply_sparse({i: rng.randint(1, 97) for i in range(r)})
        mu = _min_poly(LinearMap(r, r, [zspace.coords(a.mul_sparse(z, c)) for c in center]))
        if len(mu) <= r:
            continue
        sums, power = [], a.unit_sparse
        for _ in range(r):
            sums.append(vec_dot(alpha, power))
            power = a.mul_sparse(z, power)
        q = [sum(mu[k + m + 1] * sums[m] for m in range(r - k)) for k in range(r)]
        dmu = [k * c for k, c in enumerate(mu)][1:]
        blocks = []
        for d in range(1, isqrt(n) + 1):
            g = _poly_gcd(mu, [x - d * d * y for x, y in zip(q, dmu)])
            blocks.extend([d] * (len(g) - 1))
        if len(blocks) != r or sum(d * d for d in blocks) != n:
            raise NotSemisimple(f"block sizes {tuple(blocks)} do not certify dim Z(A) = {r} "
                                f"and dim A = {n} (seed {cur})")
        return BlockReport(n, tuple(blocks), cur)
    raise NotSemisimple(f"no seeded central element separates the {r} blocks "
                        f"after {MAX_RESEEDS + 1} seeds")


class FpdimReport(Record):
    blocks: tuple
    fpdims: tuple
    report: VerificationReport


def fpdim_report(s_wha, a_mod, *, seed: int = 0) -> FpdimReport:
    """For each Wedderburn block (= simple module V) of A#H: dim A divides
    dim V and FPdim V = dim V / dim A, an exact integer."""
    hs = is_H_simple(a_mod)
    if hs.kind != "certified_simple":
        raise HypothesisFailure("A-is-H-simple", hs.kind)
    rep = VerificationReport("fpdim")
    br = wedderburn_blocks(s_wha.algebra, seed=seed)
    na = a_mod.A.dim
    ok = rep.check("dimension_divisibility", ((d, na) for d in br.blocks if d % na != 0))
    fpdims = tuple(d // na for d in itertools.takewhile(lambda d: d % na == 0, br.blocks))
    rep.add("fpdims_positive_integers", ok and all(f >= 1 for f in fpdims))
    return FpdimReport(br.blocks, fpdims, rep)


# ---------------------------------------------------------------------------
# class idempotents of C(H*)
# ---------------------------------------------------------------------------

class ClassIdempotents(Record):
    idempotents: tuple    # vectors in H*
    blocks: tuple         # bases of Lambda <- F_i H* in H
    report: VerificationReport


def class_idempotents(h: HopfData, q: QTStructure, ip,
                      bg: BraidedGroupData | None = None,
                      decomposition: HrDecomposition | None = None) -> ClassIdempotents:
    """The block idempotents F_i of the cocommutative-functions subalgebra
    C(H*) that `decompose_hr` splits from, checked as orthogonal idempotents
    summing to eps, each central in H_R^*, with F_i ->_R H_R = Lambda <- F_i H*
    as exact subspaces. Refused when C(H*) does not split into lines over Q."""
    bg = braided_group_of(q, bg)
    if decomposition is None:
        decomposition = decompose_hr(bg)
    n = h.dim
    rep = VerificationReport("class_idempotents")
    idems = decomposition.idempotents
    rep.add("c_hstar_splits_into_lines", decomposition.fully_split, (len(idems),))
    if not decomposition.fully_split:
        raise HypothesisFailure("C(H*)-split-over-Q")

    dual = convolution_algebra(h.coalgebra)
    rep.check("idempotent", ((i,) for i, f in enumerate(idems) if dual.mul_sparse(f, f) != f))
    rep.check("orthogonal",
              ((i, j) for i in range(len(idems)) for j in range(i + 1, len(idems))
               if dual.mul_sparse(idems[i], idems[j])))
    total: dict = {}
    for f in idems:
        for k, c in f.items():
            sp_add(total, k, c)
    rep.add("sum_to_counit", total == sp(h.counit))

    ar = hr_star_algebra(bg)
    rep.check("central_in_hr_star",
              ((b,) for f in idems for b in range(n)
               if ar.mul_sparse(f, {b: 1}) != ar.mul_sparse({b: 1}, f)))

    block_bases = []
    ok = True
    right = h.coalgebra.hits[1]
    for f in idems:
        lhs = hit_space(bg.braided_coalgebra, f, n)
        # Lambda <- f e_b = <f e_b, Lambda_(1)> Lambda_(2)
        rhs = [right.act(dual.mul_sparse(f, {b: 1}), ip.Lambda) for b in range(n)]
        if lhs != span_basis(rhs, n):
            ok = False
        block_bases.append(tuple(lhs))
    rep.add("hit_spaces_match", ok)
    return ClassIdempotents(tuple(idems), tuple(block_bases), rep)


# ---------------------------------------------------------------------------
# the divisibility corollary
# ---------------------------------------------------------------------------

def dv_divisibility(v, q: QTStructure, bg: BraidedGroupData | None = None) -> VerificationReport:
    """dim D_V divides dim V for an irreducible Yetter-Drinfeld module V."""
    rep = VerificationReport("dv_divisibility")
    res = yd_to_comodule(v, q, bg)
    dv = len(res.d_v_basis)
    rep.add("d_v_nonzero", dv > 0, (dv,))
    rep.add("divides", v.dim % dv == 0, (dv, v.dim))
    return rep
