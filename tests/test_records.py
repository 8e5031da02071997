"""The package's records keep the semantics of the frozen dataclasses they
were: fields read-only, cached properties filled in the instance dict,
equality and hash field by field, today's keyword construction and defaults,
and each constructor's refusals."""

import importlib

import pytest

from hopfsmash import demos as dm
from hopfsmash.exactlin import DimensionMismatch, LinearMap, Record, Tensor3
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


# The constructors the store-only records wrote by hand before Record.__init__
# took their place: each record's fields in order, with their defaults.
SIGNATURES = {
    "adjstable.ComoduleData": ("coalgebra", "dim", "coaction"),
    "adjstable.YetterDrinfeldData": ("host", "action", "coaction"),
    "adjstable.BraidedComoduleResult": ("comodule", "d_v_basis", "report"),
    "adjstable.HTensorW": ("h", "w", "dim", "action", "coaction"),
    "adjstable.AdjointStableAlgebra": ("w", "htw", "basis", "carrier", "ambient"),
    "adjstable.SubcoalgebraData": ("basis", "coalgebra", "ad_coords"),
    "adjstable.PsiPhiResult": ("psi", "phi", "nd", "smash", "dstar_mod", "dd", "report"),
    "adjstable.HrDecomposition": ("blocks", "idempotents", "fully_split", "report"),
    "hopfcore.IntegralPair": ("Lambda", "lam"),
    "hopfcore.GroupTable": ("elements", "table"),
    "modalg.SeparabilityData": ("x", "alpha"),
    "modalg.HSimplicityResult": ("kind", ("witness_ideal", None), ("commutant_dim", None)),
    "qtriang.QTStructure": ("host", "R", "Rinv"),
    "qtriang.DrinfeldElement": ("u", "s_invariant", "central"),
    "qtriang.TriangularityClass": ("kind", "in_center_tensor_h", "in_h_tensor_center",
                                   ("witness", None)),
    "qtriang.BraidedGroupData": ("host", "adjoint_action", "comult_R", "antipode_R"),
    "repdim.BlockReport": ("dim", "blocks", "seed"),
    "repdim.FpdimReport": ("blocks", "fpdims", "report"),
    "repdim.ClassIdempotents": ("idempotents", "blocks", "report"),
    "smashcons.SmashProduct": ("A_mod", "H", "carrier"),
    "smashcons.SmashWeakStructure": ("smash", "q", "sep", "wha", "report"),
    "smashcons.BAlgebra": ("A_mod", "q", "sep", "wha", "rqt", "report"),
    "smashcons.CaseStudyReport": ("t", "stabilizer", "coset_reps", "matrix_unit_index",
                                  "centralizer_basis", "iso", "sws", "report"),
    "weakhopf.CounitalData": ("eps_s", "eps_t", "source_basis", "target_basis", "report"),
    "weakhopf.WeakQTStructure": ("host", "Rw", "Rw_bar"),
    "weakhopf.GroupoidData": ("n_objects", "sources", "targets", "compose", "identities",
                              "inverses"),
}


def _record_class(qualified: str):
    module, name = qualified.split(".")
    return getattr(importlib.import_module(f"hopfsmash.{module}"), name)


@pytest.mark.parametrize("qualified", sorted(SIGNATURES))
def test_store_only_records_keep_their_signatures(qualified):
    cls = _record_class(qualified)
    row = [p if isinstance(p, tuple) else (p,) for p in SIGNATURES[qualified]]
    assert cls._fields == tuple(p[0] for p in row)
    assert cls._defaults == {p[0]: p[1] for p in row if len(p) == 2}
    assert "__init__" not in vars(cls) and cls.__init__ is Record.__init__
    values = [object() for _ in row]
    x, y = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert x == y and hash(x) == hash(y) and [getattr(x, f) for f in cls._fields] == values


def test_record_without_annotations_adds_no_field():
    assert WeakHopfData._fields == HopfData._fields == ("algebra", "coalgebra", "antipode")


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 2, 3), {}, "GroupTable() takes 2 positional arguments but 3 were given"),
    ((), {"elements": (), "table": (), "order": 1},
     "GroupTable() got an unexpected keyword argument 'order'"),
    (((),), {"elements": ()}, "GroupTable() got multiple values for argument 'elements'"),
    (((),), {}, "GroupTable() missing required arguments ['table']"),
    ((), {}, "GroupTable() missing required arguments ['elements', 'table']"),
], ids=["too-many", "unknown-keyword", "repeated", "missing-one", "missing-all"])
def test_constructor_refuses_a_call_a_function_would(args, kwargs, message):
    with pytest.raises(TypeError) as exc:
        GroupTable(*args, **kwargs)
    assert str(exc.value) == message


def test_a_defaulted_field_can_still_be_missing_after_it():
    with pytest.raises(TypeError, match=r"missing required arguments \['in_h_tensor_center'\]"):
        TriangularityClass("triangular", True, witness=(0,))
    t = TriangularityClass("triangular", True, in_h_tensor_center=False, witness=(0,))
    assert (t.in_h_tensor_center, t.witness) == (False, (0,))
