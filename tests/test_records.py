"""The package's records keep the semantics of the frozen dataclasses they
were: fields read-only, cached properties filled in the instance dict,
equality and hash field by field, today's keyword construction and defaults,
and each constructor's refusals."""

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import DimensionMismatch, LinearMap, Tensor3
from hopfsmash.hopfcore import GroupTable, HopfData, StructureAlgebra, group_algebra
from hopfsmash.modalg import HSimplicityResult
from hopfsmash.qtriang import TriangularityClass, transmute, trivial_qt, unverified_qt
from hopfsmash.report import Check, VerificationReport
from hopfsmash.weakhopf import GroupoidData, WeakHopfData


def _build(kind: str):
    """A fresh record of each kind, built from nothing shared, with the name
    of one of its fields and of one of its cached properties (or None)."""
    if kind == "LinearMap":
        return LinearMap(3, 2, ({0: 1}, {1: 2}, {0: -1, 1: 1})), "cols", None
    if kind == "GroupTable":
        s3 = dm.s3_table()
        return GroupTable.from_lists(s3.elements, map(list, s3.table)), "table", "identity"
    h = group_algebra(dm.s3_table())
    if kind == "StructureAlgebra":
        return h.algebra, "mult", "support"
    if kind == "HopfData":
        return h, "antipode", "antipode_inv"
    if kind == "WeakHopfData":
        return WeakHopfData.from_hopf(h), "coalgebra", "delta_one"
    q = trivial_qt(h)
    if kind == "QTStructure":    # trivial_qt has read its report
        return unverified_qt(h, q.R, q.Rinv), "R", "report"
    return transmute(q), "comult_R", "comult_R_cop"


KINDS = ("StructureAlgebra", "HopfData", "WeakHopfData", "LinearMap", "GroupTable",
         "QTStructure", "BraidedGroupData")


@pytest.mark.parametrize("kind", KINDS)
def test_fields_are_read_only(kind):
    x, field, _ = _build(kind)
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is before and "extra" not in vars(x)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "LinearMap"])
def test_cached_property_fills_the_instance_dict(kind):
    x, _, cached = _build(kind)
    assert cached not in vars(x)
    value = getattr(x, cached)
    assert vars(x)[cached] is value and getattr(x, cached) is value


@pytest.mark.parametrize("kind", KINDS)
def test_records_built_apart_are_equal_and_hash_alike(kind):
    (a, _, _), (b, _, _) = _build(kind), _build(kind)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert type(a).__name__ == kind


def test_equality_needs_the_same_class():
    h = group_algebra(dm.z2_table())
    w = WeakHopfData.from_hopf(h)
    assert w != h and h != w and w == WeakHopfData(h.algebra, h.coalgebra, h.antipode)
    one = StructureAlgebra(1, Tensor3.from_entries((1, 1, 1), [(0, 0, 0, 1)]), (1,))
    assert one != h.algebra and one != (1, one.mult, (1,))


def test_repr_lists_the_fields():
    assert repr(LinearMap.identity(2)) == (
        "LinearMap(source_dim=2, target_dim=2, cols=({0: 1}, {1: 1}))")
    assert repr(Check("unit_law", False, (1, 0))) == (
        "Check(name='unit_law', passed=False, witness=(1, 0), informational=False)")
    assert repr(WeakHopfData.from_hopf(group_algebra(dm.z2_table()))).startswith(
        "WeakHopfData(algebra=StructureAlgebra(dim=2, mult=Tensor3(dims=(2, 2, 2)), unit=")


def test_keyword_construction_and_defaults():
    g = GroupoidData(n_objects=2, sources=(0, 1), targets=(0, 1), compose=((0, None), (None, 1)),
                     identities=(0, 1), inverses=(0, 1))
    assert (g.n_objects, g.n_morphisms, g.compose) == (2, 2, ((0, None), (None, 1)))
    g.validate()
    c = Check("unit_law", True)
    assert (c.name, c.passed, c.witness, c.informational) == ("unit_law", True, None, False)
    assert Check(name="unit_law", passed=True, witness=None, informational=False) == c
    t = TriangularityClass("triangular", True, True)
    assert t.witness is None and t == TriangularityClass(
        kind="triangular", in_center_tensor_h=True, in_h_tensor_center=True, witness=None)
    s = HSimplicityResult("inconclusive")
    assert (s.witness_ideal, s.commutant_dim) == (None, None)
    r, other = VerificationReport("x"), VerificationReport()
    assert (r.subject, r.checks, other.subject) == ("x", [], "")
    r.add("a", True)
    assert other.checks == [] and r.checks is not other.checks


def test_reports_and_checks_stay_mutable_and_unhashable():
    r = VerificationReport("x")
    r.add("law", False, (0,))
    c = r.checks[0]
    c.passed = True
    r.subject = "y"
    assert r.ok and r == VerificationReport("y", [Check("law", True, (0,))])
    del c.witness
    assert "witness" not in vars(c)
    for x in (r, Check("law", True)):
        with pytest.raises(TypeError):
            hash(x)


def test_constructor_refusals_still_raise():
    with pytest.raises(DimensionMismatch):
        LinearMap(2, 2, ({0: 1},))
    with pytest.raises(DimensionMismatch):
        LinearMap(1, 1, ({1: 1},))
    mult = Tensor3.from_entries((1, 1, 1), [(0, 0, 0, 1)])
    with pytest.raises(TypeError, match="not an integer"):
        StructureAlgebra(1.0, mult, (1,))
    with pytest.raises(DimensionMismatch):
        StructureAlgebra(1, mult, (1, 0))
    h = group_algebra(dm.z2_table())
    with pytest.raises(DimensionMismatch):
        HopfData(h.algebra, h.coalgebra, LinearMap.identity(3))
    assert LinearMap(2, 1, iter(({0: 1}, {}))).cols == ({0: 1}, {})
