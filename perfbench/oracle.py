"""The benchmark's own re-evaluation of single axiom instances.

A fault-injected twin counts as rejected only if hopfsmash reports a failed
check with a witness and this module, which shares no code with hopfsmash,
confirms that the axiom really fails at that basis instance. Structure
constants are read through `Tensor3.row` or from the JSON a command wrote,
and all arithmetic here is plain `Fraction` arithmetic on dicts.
"""

from __future__ import annotations

from fractions import Fraction

ONE = Fraction(1)


def cells_of(t) -> dict:
    """{(i, j): {k: c}} from a hopfsmash Tensor3 (nonzero cells only)."""
    d0, d1, _ = t.dims
    return {(i, j): dict(t.row(i, j)) for i in range(d0) for j in range(d1) if t.row(i, j)}


def cells_of_json(data) -> dict:
    """{(i, j): {k: c}} from a nested JSON array of "p/q" strings."""
    out = {}
    for i, plane in enumerate(data):
        for j, row in enumerate(plane):
            cell = {k: Fraction(x) for k, x in enumerate(row) if Fraction(x) != 0}
            if cell:
                out[(i, j)] = cell
    return out


def sparse(vec) -> dict:
    return {i: Fraction(c) for i, c in enumerate(vec) if Fraction(c) != 0}


def _acc(out: dict, key, c) -> None:
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def bilinear(cells: dict, u: dict, v: dict) -> dict:
    """sum u_i v_j cells[i, j]."""
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, w in cells.get((i, j), {}).items():
                _acc(out, k, ci * cj * w)
    return out


def _pair_mul(mult: dict, x: dict, y: dict) -> dict:
    """Product in A (x) A of elements keyed by index pairs."""
    out: dict = {}
    for (a, b), cx in x.items():
        for (c, d), cy in y.items():
            left = mult.get((a, c), {})
            right = mult.get((b, d), {})
            for p, wp in left.items():
                for q, wq in right.items():
                    _acc(out, (p, q), cx * cy * wp * wq)
    return out


class AlgebraJudge:
    """Unit law and associativity of one algebra."""

    def __init__(self, mult: dict, unit: dict):
        self.mult, self.unit = mult, unit

    def unit_law(self, i) -> bool:
        e = {i: ONE}
        return bilinear(self.mult, self.unit, e) == e == bilinear(self.mult, e, self.unit)

    def associativity(self, i, j, k) -> bool:
        m = self.mult
        return (bilinear(m, bilinear(m, {i: ONE}, {j: ONE}), {k: ONE})
                == bilinear(m, {i: ONE}, bilinear(m, {j: ONE}, {k: ONE})))


class QTJudge:
    """R Delta(x) = Delta^op(x) R on basis vectors."""

    def __init__(self, mult: dict, comult: dict, r: dict):
        self.mult, self.comult, self.r = mult, comult, r

    def intertwines_comult(self, i) -> bool:
        delta = {(j, k): c for (ii, j), cell in self.comult.items() if ii == i
                 for k, c in cell.items()}
        cop = {(k, j): c for (j, k), c in delta.items()}
        return _pair_mul(self.mult, self.r, delta) == _pair_mul(self.mult, cop, self.r)


class ComoduleJudge:
    """Counit law and coassociativity of a left comodule."""

    def __init__(self, coaction: dict, comult: dict, counit: dict):
        self.coaction, self.comult, self.counit = coaction, comult, counit

    def _rho(self, w) -> dict:
        return {(d, w2): c for (v, d), cell in self.coaction.items() if v == w
                for w2, c in cell.items()}

    def counit_law(self, w) -> bool:
        out: dict = {}
        for (d, w2), c in self._rho(w).items():
            _acc(out, w2, c * self.counit.get(d, 0))
        return out == {w: ONE}

    def coassociativity(self, w) -> bool:
        lhs: dict = {}
        rhs: dict = {}
        for (d, w2), c in self._rho(w).items():
            for (dd, a), cell in self.comult.items():
                if dd == d:
                    for b, cc in cell.items():
                        _acc(lhs, (a, b, w2), c * cc)
            for (d2, w3), cc in self._rho(w2).items():
                _acc(rhs, (d, d2, w3), c * cc)
        return lhs == rhs


class ModuleAlgebraJudge:
    """The four module-algebra laws of an H-action on A."""

    def __init__(self, action: dict, hmult: dict, hunit: dict, hcomult: dict,
                 hcounit: dict, amult: dict, aunit: dict):
        self.action, self.hmult, self.hunit = action, hmult, hunit
        self.hcomult, self.hcounit = hcomult, hcounit
        self.amult, self.aunit = amult, aunit

    def _act(self, h: dict, a: dict) -> dict:
        return bilinear(self.action, h, a)

    def action_unital(self, a) -> bool:
        return self._act(self.hunit, {a: ONE}) == {a: ONE}

    def action_module_law(self, i, j, a) -> bool:
        prod = bilinear(self.hmult, {i: ONE}, {j: ONE})
        return self._act(prod, {a: ONE}) == self._act({i: ONE}, self._act({j: ONE}, {a: ONE}))

    def measuring(self, i, a, b) -> bool:
        lhs = self._act({i: ONE}, bilinear(self.amult, {a: ONE}, {b: ONE}))
        rhs: dict = {}
        for (ii, p), cell in self.hcomult.items():
            if ii != i:
                continue
            for q, c in cell.items():
                va = self._act({p: ONE}, {a: ONE})
                vb = self._act({q: ONE}, {b: ONE})
                for k, w in bilinear(self.amult, va, vb).items():
                    _acc(rhs, k, c * w)
        return lhs == rhs

    def unit_absorbed(self, i) -> bool:
        eps = self.hcounit.get(i, 0)
        target = {k: eps * v for k, v in self.aunit.items()} if eps else {}
        return self._act({i: ONE}, self.aunit) == target


def confirm(judge, failed_checks) -> bool:
    """True iff some failed (name, witness) pair is a check the judge knows and
    the judge agrees the axiom fails there, and no known witness is refuted."""
    confirmed = False
    for name, witness in failed_checks:
        law = getattr(judge, name.rsplit(".", 1)[-1], None)
        if law is None or not witness or not all(isinstance(x, int) for x in witness):
            continue
        try:
            holds = law(*witness)
        except TypeError:  # a witness of another arity belongs to another law
            continue
        if holds:
            return False
        confirmed = True
    return confirmed


def failed_checks(report) -> list:
    """(name, witness tuple) of the hard failures of a VerificationReport."""
    return [(c.name, tuple(c.witness) if isinstance(c.witness, (tuple, list)) else None)
            for c in report.failures()]


def failed_checks_json(report: dict) -> list:
    """(name, witness tuple) of the failures in a CLI JSON report."""
    return [(c["axiom"], tuple(c["witness"]) if isinstance(c.get("witness"), list) else None)
            for c in report["checks"] if c["status"] == "fail" and not c.get("informational")]
