"""Command-line front door.

    hopfsmash demo <name> [--seed N] [--json PATH]
    hopfsmash verify <workspace.json> <target> <suite> [--json PATH]
    hopfsmash construct <workspace.json> <recipe> <out.json> [--json PATH]

--seed and --json may come before or after the subcommand.

Workspace files are single JSON documents {"objects": {name: object}} with
rationals serialized as "p/q" strings or JSON integers; a float, a boolean or a
zero denominator is refused with exit code 2, as is an output path that cannot
be written. Recipes take their arguments inline,
e.g. `construct ws.json double:kz2 out.json`. Exit code 0 iff every check in
the run passed; reports embed the tool version and the input content hash.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import __version__
from .adjstable import decompose_hr, nd_transport_report, psi_phi
from .exactlin import (
    LinearMap,
    Tensor3,
    TensorElem,
    _array,
    rank,
    rat_reader,
    rat_str,
    sp,
    vec,
)
from .hopfcore import (
    GroupTable,
    HopfData,
    StructureAlgebra,
    StructureCoalgebra,
    dual_hopf,
    drinfeld_double,
    group_algebra,
    heisenberg_double,
    integrals,
)
from .modalg import ModuleAlgebraData, separability, verify_module_algebra
from .qtriang import (
    QTStructure,
    almost_triangular_equivalences,
    hr_dual_separability,
    qt_structure,
    transmute,
    trivial_qt,
    unverified_qt,
    verify_qt,
)
from .repdim import class_idempotents, fpdim_report, wedderburn_blocks
from .report import HypothesisFailure, VerificationReport
from .smashcons import (
    build_B,
    double_smash_decomposition,
    groupoid_case_study,
    smash_algebra,
    smash_qt,
    smash_weak_structure,
)
from .weakhopf import (
    GroupoidData,
    WeakHopfData,
    WeakQTStructure,
    almost_triangular_wha_report,
    groupoid_wha,
    verify_weak_hopf,
    verify_weak_qt,
)
from . import demos as dm


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class Tokens(list):
    """A row of `rat_str` tokens ([-0-9/], never escaped in JSON), so that
    the writer joins it with one str.join."""

    __slots__ = ()    # as small as a list: no per-row __dict__


def ser_vec(v):
    return Tokens(rat_str(c) for c in v)


def _ser_mat(m):
    return [ser_vec(row) for row in m]


def ser_hopf(h: HopfData, kind: str = "hopf") -> dict:
    return {"type": kind, "dim": h.dim,
            "mult": h.mult, "unit": ser_vec(h.unit),
            "comult": h.comult, "counit": ser_vec(h.counit),
            "antipode": _ser_mat(h.antipode.matrix)}


def de_hopf(obj: dict, name: str, cls=HopfData):
    dim, mult, unit, comult, counit, antipode = _fields(
        obj, name, "dim", "mult", "unit", "comult", "counit", "antipode")
    with _parsing(f"object {name!r}"):
        return cls(StructureAlgebra(dim, Tensor3.from_dense(mult), vec(unit)),
                   StructureCoalgebra(dim, Tensor3.from_dense(comult), vec(counit)),
                   LinearMap.from_matrix(antipode))


def ser_algebra(a: StructureAlgebra) -> dict:
    return {"type": "algebra", "dim": a.dim,
            "mult": a.mult, "unit": ser_vec(a.unit)}


def groupoid_wha_from_json(obj: dict, name: str) -> WeakHopfData:
    """{"objects": [...] or count, "morphisms": [{"src": i, "dst": j,
    "name": ...?}], "compose": table, "identities": [...], "inverses": [...]}
    -> its groupoid algebra; a field of the wrong type or shape, or an index
    that is not an int in range, is a ValueError naming the object."""
    morphs, objects, compose, identities, inverses = _fields(
        obj, name, "morphisms", "objects", "compose", "identities", "inverses")
    with _parsing(f"object {name!r}"):
        ends = [_fields(m, f"{name}.morphisms[{a}]", "src", "dst") for a, m in enumerate(morphs)]
        if not isinstance(objects, list) and type(objects) is not int:
            raise ValueError(f"objects must be a list or an integer count, not {objects!r}")
        return groupoid_wha(GroupoidData(
            n_objects=len(objects) if isinstance(objects, list) else objects,
            sources=tuple(src for src, _ in ends),
            targets=tuple(dst for _, dst in ends),
            compose=tuple(tuple(row) for row in compose),
            identities=tuple(identities),
            inverses=tuple(inverses),
        ))


def _group_algebra(obj: dict, name: str) -> HopfData:
    """kG of a group object, its table validated; a malformed field is a
    ValueError naming the object."""
    elements, table = _fields(obj, name, "elements", "table")
    with _parsing(f"object {name!r}"):
        return group_algebra(GroupTable.from_lists(_array(elements), table))


def _fields(obj: dict, name: str, *fields) -> tuple:
    """The values of `fields` in the workspace object `name`; a missing field
    is a ValueError naming the object and the field."""
    for field in fields:
        if not isinstance(obj, dict) or field not in obj:
            raise ValueError(f"object {name!r} has no field {field!r}")
    return tuple(obj[field] for field in fields)


@contextmanager
def _parsing(what: str):
    """Scope for reading workspace scalars: a refused one (a bool, a float, a
    malformed string, a zero denominator) becomes a ValueError naming what. A
    refused hypothesis passes through, so a verified build may run inside."""
    try:
        yield
    except HypothesisFailure:
        raise
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _square_tensor(rows, n: int, what: str) -> TensorElem:
    """The 2-leg tensor of an n x n JSON matrix of rationals; ValueError on
    any other shape, so a short matrix is never padded with zeros."""
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(row, list) or len(row) != n for row in rows)):
        raise ValueError(f"{what} must be a {n} x {n} matrix over the host")
    read = rat_reader()
    with _parsing(what):
        # the "0" shortcut compares strings only, so a JSON false still reaches rat
        return TensorElem.from_entries(
            (n, n), (((i, j), f) for i, row in enumerate(rows) for j, x in enumerate(row)
                     if x != "0" and (f := read(x))))


class Workspace:
    """Named objects loaded from a single JSON document; references resolve
    lazily and every name must be unique."""

    def __init__(self, objects: dict, raw: bytes = b""):
        self.objects = objects
        self.raw = raw

    @staticmethod
    def load(path: str) -> "Workspace":
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("the top level of a workspace must be a JSON object")
        objects = doc.get("objects", {})
        if not isinstance(objects, dict):
            raise ValueError("workspace 'objects' must be a mapping")
        for name, obj in objects.items():
            if not isinstance(obj, dict):
                raise ValueError(f"object {name!r} must be a mapping")
            for field in ("host", "qt", "group"):
                ref = obj.get(field)
                if ref is not None and (not isinstance(ref, str) or ref not in objects):
                    raise ValueError(
                        f"object {name!r} references missing object {ref!r}")
        return Workspace(objects, raw)

    def content_hash(self) -> str:
        return _sha256(self.raw)

    def get(self, name: str) -> dict:
        if name not in self.objects:
            raise KeyError(f"workspace has no object named {name!r}")
        return self.objects[name]

    def resolve_hopf(self, name: str) -> HopfData:
        obj = self.get(name)
        t = obj.get("type")
        if t == "group":
            return _group_algebra(obj, name)
        if t in ("hopf", "weak-hopf"):
            return de_hopf(obj, name)
        raise ValueError(f"object {name!r} of type {t!r} is not a Hopf algebra")

    def resolve_weak_hopf(self, name: str) -> WeakHopfData:
        obj = self.get(name)
        t = obj.get("type")
        if t == "group":
            return WeakHopfData.from_hopf(self.resolve_hopf(name))
        if t in ("hopf", "weak-hopf"):
            return de_hopf(obj, name, WeakHopfData)
        if t == "groupoid":
            return groupoid_wha_from_json(obj, name)
        raise ValueError(f"object {name!r} of type {t!r} is not a weak Hopf algebra")

    def qt_inputs(self, name: str) -> tuple:
        """(host, R) of the qt object `name`, nothing verified."""
        obj = self.get(name)
        if obj.get("type") != "qt":
            raise ValueError(f"object {name!r} is not a qt structure")
        host, r = _fields(obj, name, "host", "R")
        host = self.resolve_hopf(host)
        return host, _square_tensor(r, host.dim, f"{name}.R")

    def resolve_qt(self, name: str) -> QTStructure:
        return qt_structure(*self.qt_inputs(name))

    def resolve_weak_qt(self, name: str) -> WeakQTStructure:
        obj = self.get(name)
        if obj.get("type") != "weak-qt":
            raise ValueError(f"object {name!r} is not a weak-qt structure")
        host, r, rbar = _fields(obj, name, "host", "R", "Rbar")
        host = self.resolve_weak_hopf(host)
        return WeakQTStructure(host, _square_tensor(r, host.dim, f"{name}.R"),
                               _square_tensor(rbar, host.dim, f"{name}.Rbar"))

    def resolve_module_algebra(self, name: str) -> ModuleAlgebraData:
        obj = self.get(name)
        if obj.get("type") != "module-algebra":
            raise ValueError(f"object {name!r} is not a module algebra")
        host, a, action = _fields(obj, name, "host", "algebra", "action")
        dim, mult, unit = _fields(a, f"{name}.algebra", "dim", "mult", "unit")
        host = self.resolve_hopf(host)
        with _parsing(f"object {name!r}"):
            alg = StructureAlgebra(dim, Tensor3.from_dense(mult), vec(unit))
            return ModuleAlgebraData(host, alg, Tensor3.from_dense(action))

    def resolve_subcoalgebra(self, name: str) -> tuple:
        """(qt structure, basis) of the subcoalgebra object `name`, the basis
        as sparse vectors; each must have dim H entries, and they must be
        independent."""
        obj = self.get(name)
        if obj.get("type") != "subcoalgebra":
            raise ValueError(f"object {name!r} is not a subcoalgebra")
        qt, basis = _fields(obj, name, "qt", "basis")
        q = self.resolve_qt(qt)
        n = q.host.dim
        with _parsing(f"object {name!r}"):
            vectors = [vec(v) for v in basis]
            if any(len(v) != n for v in vectors):
                raise ValueError(f"a basis vector does not have dim H = {n} entries")
            vectors = [sp(v) for v in vectors]
            if rank(vectors, n) != len(vectors):
                raise ValueError("the basis vectors are linearly dependent")
            return q, vectors


def _row_text(tokens) -> str:
    """The JSON array of a nonempty row of `rat_str` tokens, by one str.join."""
    return '["' + '", "'.join(tokens) + '"]'


def _zero_row(n: int) -> str:
    """The JSON text of a row of n "0" tokens."""
    return "[" + ", ".join(['"0"'] * n) + "]"


def _dense_rows(cells, n: int, zero: str) -> str:
    """The JSON text of a dense array with n columns, read from each row's
    nonzero (k, value) pairs: an empty row is `zero`, the text of n "0"
    tokens, and a nonempty one is joined from its tokens."""
    rows = []
    for cell in cells:
        if cell:
            row = ["0"] * n
            for k, c in cell:
                row[k] = rat_str(c)
            rows.append(_row_text(row))
        else:
            rows.append(zero)
    return "[" + ", ".join(rows) + "]"


def _chunks(x):
    """json.dumps(x) in pieces, none longer than one plane of a tensor.  A
    Tensor3 or TensorElem is written as its dense array of "p/q" strings from
    its nonzero cells, a plane at a time; a Tokens row of strs is joined as it
    stands; lists, tuples and dicts are recursed with json's default
    separators; every other value (a Tokens row holding a non-str too) goes to
    json.dumps."""
    if type(x) is Tokens:
        try:
            yield _row_text(x) if x else "[]"
        except TypeError:
            yield json.dumps(x)
    elif type(x) is Tensor3:
        d0, d1, d2 = x.dims
        zero = _zero_row(d2)
        yield "["
        for i in range(d0):
            plane = (x.row(i, j) for j in range(d1))
            yield (", " if i else "") + _dense_rows(plane, d2, zero)
        yield "]"
    elif type(x) is TensorElem:
        d0, d1 = x.dims
        cells = [[] for _ in range(d0)]
        for (i, j), c in x.items():
            cells[i].append((j, c))
        yield _dense_rows(cells, d1, _zero_row(d1))
    elif isinstance(x, (list, tuple)):
        yield "["
        for n, y in enumerate(x):
            if n:
                yield ", "
            yield from _chunks(y)
        yield "]"
    elif isinstance(x, dict):
        yield "{"
        for n, (k, v) in enumerate(x.items()):
            # a key that is not a str is converted, or refused, as json.dumps does
            key = json.dumps(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
            yield (", " if n else "") + key + ": "
            yield from _chunks(v)
        yield "}"
    else:
        yield json.dumps(x)


def _encode(x) -> str:
    """json.dumps of x with every tensor in it made dense, byte for byte."""
    return "".join(_chunks(x))


def _sha256(data: bytes) -> str:
    """The hex SHA-256 of data: the `input_hash` of every report.  hashlib is
    imported here, on first use, as it adds to every start-up otherwise."""
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _write_json(path: str, doc: dict) -> bool:
    """Write `doc` as compact JSON, byte-identical to `_encode(doc)`, one
    piece at a time; every file the package writes goes through here.  False,
    with the reason on stderr, when the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_chunks(doc))
    except OSError as exc:
        print(f"error: cannot write {path!r}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def _demo_s3_groupoid(seed: int):
    cs = groupoid_case_study(dm.s3_table(), dm.natural_point_action(3))
    out = VerificationReport("demo:s3-groupoid")
    out.merge(cs.report, "case_study.")
    wq, qrep = smash_qt(cs.sws)
    out.merge(qrep, "qt.")
    fp = fpdim_report(cs.sws.wha, cs.sws.smash.A_mod, seed=seed)
    out.merge(fp.report, "fpdim.")
    out.add("blocks_are_3_3", fp.blocks == (3, 3), fp.blocks)
    out.add("fpdims_are_1_1", fp.fpdims == (1, 1), fp.fpdims)
    return out, {"blocks": list(fp.blocks), "fpdims": list(fp.fpdims),
                 "case_study": cs.to_dict()}


def _demo_double(table: GroupTable):
    h = group_algebra(table)
    rep = double_smash_decomposition(h)
    out = VerificationReport(f"demo:double-{table.order}")
    out.merge(rep, "decomposition.")
    return out, {"dim": h.dim ** 3}


def _demo_hr_s3(seed: int):
    h = dm.k_s3()
    q = trivial_qt(h)
    bg = transmute(q)
    ip = integrals(h)
    out = VerificationReport("demo:hr-s3")
    dec = decompose_hr(bg)
    out.merge(dec.report, "decompose.")
    dims = sorted(len(b) for b in dec.blocks)
    out.add("block_dims_1_2_3", dims == [1, 2, 3], tuple(dims))
    ci = class_idempotents(h, q, ip, bg, dec)
    out.merge(ci.report, "idempotents.")
    x, xrep = hr_dual_separability(q, ip, bg)
    out.merge(xrep, "x.")
    out.merge(almost_triangular_equivalences(q, bg), "equivalences.")
    return out, {"block_dims": dims}


def _demo_nd_transpositions(seed: int):
    h = dm.k_s3()
    q = trivial_qt(h)
    bg = transmute(q)
    ip = integrals(h)
    dec = decompose_hr(bg)
    d = [b for b in dec.blocks if len(b) == 3][0]
    out = VerificationReport("demo:nd-transpositions")
    pp = psi_phi(d, q, bg)
    out.merge(pp.report, "psi_phi.")
    out.add("nd_dim_18", pp.nd.carrier.dim == 18, (pp.nd.carrier.dim,))
    out.merge(nd_transport_report(d, q, ip, bg, dec), "transport.")
    return out, {"nd_dim": pp.nd.carrier.dim}


def _demo_heisenberg_z2(seed: int):
    h = dm.k_z2()
    hz = heisenberg_double(h)
    out = VerificationReport("demo:heisenberg-z2")
    br = wedderburn_blocks(hz, seed=seed)
    out.add("single_block_of_2", br.blocks == (2,), br.blocks)
    return out, {"block_report": br.to_dict()}


DEMOS = {
    "s3-groupoid": _demo_s3_groupoid,
    "double-z2": lambda seed: _demo_double(dm.z2_table()),
    "double-s3": lambda seed: _demo_double(dm.s3_table()),
    "hr-s3": _demo_hr_s3,
    "nd-transpositions": _demo_nd_transpositions,
    "heisenberg-z2": _demo_heisenberg_z2,
}


def cmd_demo(name: str, seed: int, json_path: str | None) -> int:
    if name not in DEMOS:
        print(f"error: unknown demo {name!r}; choose from {sorted(DEMOS)}", file=sys.stderr)
        return 2
    rep, extra = DEMOS[name](seed)
    print(rep.summary())
    payload = {"tool_version": __version__,
               "input_hash": _sha256(name.encode()),
               "command": ["demo", name], "seed": seed,
               "ok": rep.ok, "extra": extra, "report": rep.to_dict()}
    path = json_path or f"{name}-report.json"
    if not _write_json(path, payload):
        return 2
    print(f"report written to {path}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_smash_pipeline(ws: Workspace, target: str):
    m = ws.resolve_module_algebra(target)
    obj = ws.get(target)
    if "qt" in obj:
        q = ws.resolve_qt(obj["qt"])
    else:
        q = trivial_qt(m.host)
    rep = VerificationReport(f"smash-pipeline:{target}")
    rep.merge(m.report, "module.")
    sep = separability(m)
    s = smash_algebra(m)
    sws = smash_weak_structure(s, q, sep)
    rep.merge(sws.report, "wha.")
    wq, qrep = smash_qt(sws)
    rep.merge(qrep, "qt.")
    rep.add("codec", True, ("flat = a_index * dim_H + h_index",), informational=True)
    return rep


def _suite_adjoint_stable(ws: Workspace, target: str):
    q, basis = ws.resolve_subcoalgebra(target)
    pp = psi_phi(basis, q)
    rep = VerificationReport(f"adjoint-stable:{target}")
    rep.merge(pp.report, "psi_phi.")
    m = len(basis)
    rep.add("structure_dimension_identity",
            pp.nd.carrier.dim * m == q.host.dim * m * m,
            (pp.nd.carrier.dim, m, q.host.dim))
    return rep


def _suite_hopf(ws: Workspace, target: str):
    # the cached report: a group algebra was verified when it was built
    rep = VerificationReport(f"hopf:{target}")
    rep.merge(ws.resolve_hopf(target).report)
    return rep


SUITES = {
    "hopf": _suite_hopf,
    "qt": lambda ws, t: verify_qt(unverified_qt(*ws.qt_inputs(t)), f"qt:{t}"),
    "module-algebra": lambda ws, t: verify_module_algebra(
        ws.resolve_module_algebra(t), f"module-algebra:{t}"),
    "weak-hopf": lambda ws, t: verify_weak_hopf(
        ws.resolve_weak_hopf(t), f"weak-hopf:{t}"),
    "weak-qt": lambda ws, t: verify_weak_qt(ws.resolve_weak_qt(t), f"weak-qt:{t}"),
    "almost-triangular": lambda ws, t: almost_triangular_wha_report(
        ws.resolve_weak_qt(t), f"almost-triangular:{t}"),
    "smash-pipeline": _suite_smash_pipeline,
    "adjoint-stable": _suite_adjoint_stable,
}


def cmd_verify(path: str, target: str, suite: str, json_path: str | None) -> int:
    if suite not in SUITES:
        print(f"error: unknown suite {suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return 2
    try:
        ws = Workspace.load(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load workspace {path!r}: {exc}", file=sys.stderr)
        return 2
    try:
        rep = SUITES[suite](ws, target)
    except HypothesisFailure as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rep.summary())
    if json_path:
        payload = {"tool_version": __version__, "input_hash": ws.content_hash(),
                   "command": ["verify", path, target, suite],
                   "ok": rep.ok, "report": rep.to_dict()}
        if not _write_json(json_path, payload):
            return 2
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _construct(ws: Workspace, recipe: str):
    if ":" not in recipe:
        raise ValueError("recipe must look like 'op:target[,target2]'")
    op, _, argstr = recipe.partition(":")
    args = argstr.split(",")
    if not any(args):
        raise ValueError(f"recipe {recipe!r} names no target")
    if "" in args:
        raise ValueError(f"recipe {recipe!r} has an empty target")
    counts = (1, 2) if op in ("smash-wha", "build-B") else (1,)
    if len(args) not in counts:
        raise ValueError(f"recipe {recipe!r} names {len(args)} targets; "
                         f"{op} takes {' or '.join(map(str, counts))}")
    if op == "group-algebra":
        h = _group_algebra(ws.get(args[0]), args[0])
        return {"constructed": ser_hopf(h)}, h.report
    if op == "dual":
        h = dual_hopf(ws.resolve_hopf(args[0]))
        return {"constructed": ser_hopf(h)}, h.report
    if op == "double":
        dd, q = drinfeld_double(ws.resolve_hopf(args[0]))
        rep = VerificationReport("hopf")    # dd.report is shared: merge, do not add
        rep.merge(dd.report)
        rep.merge(q.report, "qt.")
        return {"constructed": ser_hopf(dd), "R": q.R}, rep
    if op == "heisenberg":
        a = heisenberg_double(ws.resolve_hopf(args[0]))
        return {"constructed": ser_algebra(a)}, a.report
    if op == "smash":
        s = smash_algebra(ws.resolve_module_algebra(args[0]))
        return {"constructed": ser_algebra(s.carrier),
                "codec": "flat = a_index * dim_H + h_index"}, s.carrier.report
    if op == "smash-wha":
        m = ws.resolve_module_algebra(args[0])
        q = ws.resolve_qt(args[1]) if len(args) > 1 else trivial_qt(m.host)
        sws = smash_weak_structure(smash_algebra(m), q, separability(m))
        return {"constructed": ser_hopf(sws.wha, "weak-hopf"),
                "codec": "flat = a_index * dim_H + h_index"}, sws.report
    if op == "build-B":
        m = ws.resolve_module_algebra(args[0])
        q = ws.resolve_qt(args[1]) if len(args) > 1 else trivial_qt(m.host)
        b = build_B(m, q, separability(m))
        return {"constructed": ser_hopf(b.wha, "weak-hopf"),
                "R": b.rqt.Rw, "Rbar": b.rqt.Rw_bar,
                "codec": "flat = (a_index * dim_H + h_index) * dim_A + dual_index"}, b.report
    if op == "transmute":
        q = ws.resolve_qt(args[0])
        bg = transmute(q)
        return {"constructed": {
            "type": "braided-group",
            "dim": q.host.dim,
            "adjoint_action": bg.adjoint_action,
            "comult_R": bg.comult_R,
            "antipode_R": _ser_mat(bg.antipode_R.matrix),
        }}, bg.report
    if op == "nd":
        q, basis = ws.resolve_subcoalgebra(args[0])
        pp = psi_phi(basis, q)
        return {"constructed": ser_algebra(pp.nd.carrier),
                "psi": _ser_mat(pp.psi.matrix),
                "phi": _ser_mat(pp.phi.matrix)}, pp.report
    if op == "decompose-hr":
        q = ws.resolve_qt(args[0])
        dec = decompose_hr(transmute(q))
        n = q.host.dim
        return {"constructed": {
            "type": "decomposition",
            "blocks": [[ser_vec(v.get(i, 0) for i in range(n)) for v in blk]
                       for blk in dec.blocks],
            "fully_split": dec.fully_split,
        }}, dec.report
    raise ValueError(f"unknown recipe {op!r}")


def cmd_construct(path: str, recipe: str, out: str, json_path: str | None) -> int:
    try:
        ws = Workspace.load(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load workspace {path!r}: {exc}", file=sys.stderr)
        return 2
    try:
        payload, rep = _construct(ws, recipe)
    except HypothesisFailure as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = recipe.replace(":", "_").replace(",", "_")
    doc = {"tool_version": __version__, "input_hash": ws.content_hash(),
           "command": ["construct", path, recipe, out],
           "objects": {name: payload.pop("constructed")},
           "report": rep.to_dict()}
    doc.update(payload)
    if not _write_json(out, doc):
        return 2
    if json_path and not _write_json(
            json_path, {"tool_version": __version__, "input_hash": doc["input_hash"],
                        "command": doc["command"], "ok": rep.ok, "report": doc["report"]}):
        return 2
    print(rep.summary())
    print(f"object written to {out}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    # the global flags are accepted before and after the subcommand; they set
    # nothing when absent, so one given before is not reset by the subcommand
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--seed", type=int, help="seed for exact block sizes (default 0)")
    flags.add_argument("--json", help="write the JSON report here")
    ap = argparse.ArgumentParser(prog="hopfsmash", description=__doc__, parents=[flags])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("demo", parents=[flags], help="run a named end-to-end pipeline")
    d.add_argument("name")
    v = sub.add_parser("verify", parents=[flags],
                       help="run a check suite against a workspace object")
    v.add_argument("workspace")
    v.add_argument("target")
    v.add_argument("suite")
    c = sub.add_parser("construct", parents=[flags], help="build an object and write it out")
    c.add_argument("workspace")
    c.add_argument("recipe")
    c.add_argument("out")
    return ap


# built once per process: a parse keeps no state in the parser, since each
# call of main starts from its own namespace of defaults
PARSER = _parser()


def main(argv=None) -> int:
    ns = PARSER.parse_args(argv, argparse.Namespace(seed=0, json=None))
    if ns.cmd == "demo":
        return cmd_demo(ns.name, ns.seed, ns.json)
    if ns.cmd == "verify":
        return cmd_verify(ns.workspace, ns.target, ns.suite, ns.json)
    if ns.cmd == "construct":
        return cmd_construct(ns.workspace, ns.recipe, ns.out, ns.json)
    return 2


if __name__ == "__main__":
    sys.exit(main())
