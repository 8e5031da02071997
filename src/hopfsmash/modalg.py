"""H-module algebras: action verification, quantum commutativity, the
regular-representation trace functional, the symmetric separability
idempotent, triviality of the Drinfeld-element action, and H-simplicity.

Strong separability is operationalized as invertibility of the trace form of
the left regular representation over the rationals; its Casimir element is
the canonical symmetric separability idempotent.
"""

from __future__ import annotations

from functools import cached_property

from .exactlin import (
    LinearMap,
    Record,
    Tensor3,
    TensorElem,
    commutant_rows,
    kernel_basis,
    sp_add,
    sp_scale,
    span_closure,
    vec_dot,
)
from .hopfcore import (
    HopfData,
    StructureAlgebra,
    casimir_failures,
    certified_scan,
    host_generators,
    leg_map,
    map_legs,
    measuring_failures,
    module_law_failures,
    multiply_legs,
    quantum_commutativity_failures,
)
from .qtriang import adjoint_action_tensor, drinfeld_element
from .report import VerificationReport


class ModuleAlgebraData(Record):
    """An algebra A with a left H-action tensor action[h][a][b]
    (= coefficient of e_b in h . e_a)."""

    host: HopfData
    A: StructureAlgebra
    action: Tensor3

    def __init__(self, host, A, action):
        if action.dims != (host.dim, A.dim, A.dim):
            raise ValueError("action tensor shape must be (dim H, dim A, dim A)")
        if all(c == 0 for c in A.unit):
            raise ValueError("degenerate carrier: the unit of A is zero")
        vars(self).update(host=host, A=A, action=action)

    @cached_property
    def action_on(self) -> Tensor3:
        """The action with its first two legs swapped, formed once: its plane
        a (`Tensor3.plane`) is r |-> r . e_a, from H to A."""
        return self.action.permuted((1, 0, 2))

    def moved_into(self, a: int, into: LinearMap, legs) -> LinearMap:
        """r |-> into(r . e_a) from H, into composed with action_on.plane(a)
        but with its columns formed only at the r in legs, each off its
        action cell (r, a), the others left empty: map_legs over an element
        whose first legs all lie in legs reads no other column."""
        cell = self.action.row
        return LinearMap(self.host.dim, into.target_dim,
                         [into.apply_sparse(dict(cell(r, a))) if r in legs else {}
                          for r in range(self.host.dim)])

    @cached_property
    def report(self) -> VerificationReport:
        """verify_module_algebra(self), computed once; shared, so read it."""
        return verify_module_algebra(self)


class SeparabilityData(Record):
    """Symmetric separability idempotent x and the trace functional alpha."""

    x: TensorElem
    alpha: dict


def verify_module_algebra(m: ModuleAlgebraData, subject: str = "module_algebra") -> VerificationReport:
    """The module-algebra axioms; the module law, then measuring once it has
    passed, is scanned on S by certified_scan when host_generators allows."""
    rep = VerificationReport(subject)
    h, A = m.host, m.A
    nh, na = h.dim, A.dim
    act = m.action.act

    rep.check("action_unital", ((a,) for a in range(na)
                                if act(h.algebra.unit_sparse, {a: 1}) != {a: 1}))

    gens = host_generators(h.algebra, h.report)
    module_ok = rep.check("action_module_law", certified_scan(
        lambda js: module_law_failures(h.algebra, m.action, js), gens, range(nh)))

    rep.check("measuring", certified_scan(lambda hs: measuring_failures(h, m.action, A, hs),
                                          gens if module_ok else None, range(nh)))

    one_a = A.unit_sparse
    eps = h.counit
    rep.check("unit_absorbed",
              ((i,) for i in range(nh) if act({i: 1}, one_a) != sp_scale(one_a, eps[i])))
    return rep


def is_quantum_commutative(q, m: ModuleAlgebraData) -> tuple:
    """a b = (R^2 . b)(R^1 . a) on all basis pairs; returns (bool, witness)."""
    wit = next(quantum_commutativity_failures(q.R, m.A, m.action), None)
    return wit is None, wit


def u_acts_trivially(q, m: ModuleAlgebraData) -> tuple:
    """u . a = a for all basis a, u the Drinfeld element; (bool, witness)."""
    u_sp = drinfeld_element(q).u
    for a in range(m.A.dim):
        ea = {a: 1}
        if m.action.act(u_sp, ea) != ea:
            return False, (a,)
    return True, None


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------

def regular_trace(A: StructureAlgebra) -> dict:
    """alpha in A*: the trace of the left regular representation."""
    out: dict = {}
    for i in range(A.dim):
        for c in range(A.dim):
            for k, v in A.mul_row(i, c):
                if k == c:
                    sp_add(out, i, v)
    return out


def trace_form(A: StructureAlgebra, alpha: dict) -> LinearMap:
    """The form <alpha, a b> as the map with columns e_x -> alpha, that is
    e_x |-> sum_b <alpha, e_b e_x> e^b; its transpose sends v to alpha <- v."""
    return LinearMap(A.dim, A.dim, tuple(
        {b: c for b in range(A.dim) if (c := vec_dot(alpha, dict(A.mul_row(b, x))))}
        for x in range(A.dim)))


def separability(m: ModuleAlgebraData) -> SeparabilityData:
    """Trace functional and trace-form Casimir; refuses singular trace forms.

    The returned data satisfies, exactly: x symmetric, a x = x a, m(x) = 1,
    <alpha, x^1> x^2 = 1, dual-basis identities, <alpha, h.a> = eps(h)<alpha, a>,
    and (when S^2 = id) h.x^1 (x) x^2 = x^1 (x) S(h).x^2.
    """
    A = m.A
    n = A.dim
    alpha = regular_trace(A)
    ginv = trace_form(A, alpha).inverse()
    if ginv is None:
        raise ValueError("trace form is singular: A is not strongly separable over Q")
    x = TensorElem.from_entries((n, n), (((i, j), c) for j, col in enumerate(ginv.cols)
                                         for i, c in col.items()))
    out = SeparabilityData(x, alpha)
    verify_separability(m, out).require()
    return out


def verify_separability(m: ModuleAlgebraData, s: SeparabilityData) -> VerificationReport:
    rep = VerificationReport("separability")
    A, h = m.A, m.host
    n = A.dim
    x_sp = s.x.terms
    alpha = s.alpha

    rep.add("x_symmetric", s.x.flip() == s.x)

    rep.check("casimir_centrality", casimir_failures(A, x_sp))
    rep.add("multiplies_to_unit", multiply_legs(A, x_sp) == A.unit_sparse)

    # <alpha, x^1> x^2 = 1_A, with x as the map e_j |-> x^1 <x^2, e^j>
    x_map = leg_map(x_sp, n)
    rep.add("alpha_normalization", x_map.transpose().apply_sparse(alpha) == A.unit_sparse)

    # dual bases: x^1 <x^2 -> alpha, a> = a for all basis a
    dual = x_map.compose(trace_form(A, alpha).transpose())
    rep.check("dual_basis_identity", ((a,) for a, col in enumerate(dual.cols) if col != {a: 1}))

    # alpha is H-invariant: <alpha, h . a> = eps(h) <alpha, a>
    act = m.action.act
    rep.check("alpha_invariant",
              ((i, a) for i in range(h.dim) for a in range(n)
               if vec_dot(alpha, act({i: 1}, {a: 1}))
               != h.counit[i] * alpha.get(a, 0)))

    # h . x^1 (x) x^2 = x^1 (x) S(h) . x^2 in the involutory semisimple case
    if h.antipode.compose(h.antipode).is_identity():
        ident = LinearMap.identity(n)

        def acting(t: dict) -> LinearMap:
            """a |-> t . a, for t in H."""
            return LinearMap(n, n, [act(t, {a: 1}) for a in range(n)])

        def antipode_flip_failures():
            for t in range(h.dim):
                if (map_legs(m.action.plane(t), ident, x_sp)
                        != map_legs(ident, acting(h.antipode.cols[t]), x_sp)):
                    yield (t,)

        rep.check("antipode_flip_identity", antipode_flip_failures())
    return rep


# ---------------------------------------------------------------------------
# H-simplicity
# ---------------------------------------------------------------------------

class HSimplicityResult(Record):
    kind: str  # certified_simple | not_simple | inconclusive
    witness_ideal: tuple | None = None
    commutant_dim: int | None = None


def is_H_simple(m: ModuleAlgebraData) -> HSimplicityResult:
    """Certified simplicity via a 1-dimensional commutant of A as an A#H-module;
    explicit H-stable ideals as not-simple witnesses; inconclusive otherwise."""
    A, h = m.A, m.host
    n = A.dim
    ops = [*map(A.mult.plane, range(n)), *map(m.action.plane, range(h.dim))]
    commutant = kernel_basis(commutant_rows(ops, n), n * n)
    if len(commutant) == 1:
        return HSimplicityResult("certified_simple", commutant_dim=1)
    units = [{i: 1} for i in range(n)]

    def images(v: dict) -> list:
        return [*(A.mul_sparse(u, v) for u in units), *(A.mul_sparse(v, u) for u in units),
                *(m.action.act({t: 1}, v) for t in range(h.dim))]

    for a in range(n):
        # the least subspace holding e_a and closed under both
        # multiplications and the H-action
        closure = span_closure([units[a]], images, n)
        if 0 < len(closure) < n:
            return HSimplicityResult("not_simple", witness_ideal=tuple(closure),
                                     commutant_dim=len(commutant))
    return HSimplicityResult("inconclusive", commutant_dim=len(commutant))


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def pointwise_algebra(n: int) -> StructureAlgebra:
    """k^n with coordinatewise product."""
    mult = Tensor3.from_entries((n, n, n), ((i, i, i, 1) for i in range(n)))
    return StructureAlgebra(n, mult, (1,) * n)


def permutation_module_algebra(h: HopfData, table, point_action) -> ModuleAlgebraData:
    """k^X over kG: g . e_x = e_{g.x} for a G-action table point_action[g][x]."""
    npts = len(point_action[0])
    A = pointwise_algebra(npts)
    entries = []
    for g in range(table.order):
        for x in range(npts):
            entries.append((g, x, point_action[g][x], 1))
    action = Tensor3.from_entries((h.dim, npts, npts), entries)
    m = ModuleAlgebraData(h, A, action)
    m.report.require()
    return m


def adjoint_module_algebra(h: HopfData) -> ModuleAlgebraData:
    """H acting on itself by h .ad x = h_(1) x S(h_(2))."""
    m = ModuleAlgebraData(h, h.algebra, adjoint_action_tensor(h))
    m.report.require()
    return m


def trivial_module_algebra(h: HopfData, A: StructureAlgebra) -> ModuleAlgebraData:
    """h . a = eps(h) a."""
    entries = []
    for t in range(h.dim):
        if h.counit[t] == 0:
            continue
        for a in range(A.dim):
            entries.append((t, a, a, h.counit[t]))
    m = ModuleAlgebraData(h, A, Tensor3.from_entries((h.dim, A.dim, A.dim), entries))
    m.report.require()
    return m
