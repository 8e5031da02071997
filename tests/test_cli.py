import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsmash import __version__
from hopfsmash import demos as dm
from hopfsmash.cli import (
    DEMOS,
    Tokens,
    Workspace,
    _construct,
    _encode,
    _write_json,
    cmd_demo,
    main,
    ser_hopf,
)
from hopfsmash.exactlin import LinearMap, Tensor3, TensorElem, rat_str
from hopfsmash.hopfcore import HopfData


def _as_json(x):
    """x as a workspace file holds it: tensors made dense, as json.loads reads
    back what the CLI writes; a test mutates this copy."""
    return json.loads(_encode(x))


def write_workspace(path):
    import itertools
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    one = [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
           [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
           [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]]
    doc = {"objects": {
        "z2": {"type": "group", "elements": ["e", "g"], "table": [[0, 1], [1, 0]]},
        "s3": {"type": "group",
               "elements": ["".join(map(str, p)) for p in perms],
               "table": [[idx[compose(p, q)] for q in perms] for p in perms]},
        "k3s3": {"type": "module-algebra", "host": "s3",
                 "algebra": {"dim": 3, "mult": one, "unit": ["1", "1", "1"]},
                 "action": [[["1" if p[x] == y else "0" for y in range(3)]
                             for x in range(3)] for p in perms]},
        "adj-s3": {"type": "module-algebra", "host": "s3",
                   "algebra": None,  # filled below
                   "action": None},
    }}
    # adjoint action of kS3 on itself: a noncommutative module algebra
    mult = [[["1" if idx[compose(p, q)] == k else "0" for k in range(6)]
             for q in perms] for p in perms]
    inv = [idx[tuple(sorted(range(3), key=lambda t: p[t]))] for p in perms]
    conj = [[["1" if idx[compose(compose(p, q), perms[inv[i]])] == k else "0"
              for k in range(6)] for q in perms]
            for i, p in enumerate(perms)]
    unit6 = ["1", "0", "0", "0", "0", "0"]
    doc["objects"]["adj-s3"]["algebra"] = {"dim": 6, "mult": mult, "unit": unit6}
    doc["objects"]["adj-s3"]["action"] = conj
    path.write_text(json.dumps(doc))
    return path


def test_demo_heisenberg(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "heisenberg-z2"]) == 0
    out = capsys.readouterr().out
    assert "single_block_of_2" in out
    payload = json.loads((tmp_path / "heisenberg-z2-report.json").read_text())
    assert payload["ok"] is True
    assert payload["tool_version"] == __version__
    assert "input_hash" in payload


def test_demo_hr_s3_decomposes_once(tmp_path, count_calls):
    from hopfsmash import adjstable
    calls = count_calls(adjstable, "decompose_hr")
    assert cmd_demo("hr-s3", 0, str(tmp_path / "hr-s3.json")) == 0
    assert len(calls) == 1


def test_demo_unknown_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "bogus"]) == 2


def test_verify_hopf_pass(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    assert main(["verify", str(ws), "s3", "hopf"]) == 0
    assert main(["verify", str(ws), "k3s3", "module-algebra"]) == 0


def test_verify_fault_injected_fails(tmp_path, capsys):
    ws = tmp_path / "bad.json"
    doc = {"objects": {"bad": {"type": "group", "elements": ["e", "g"],
                               "table": [[0, 1], [1, 1]]}}}
    ws.write_text(json.dumps(doc))
    rc = main(["verify", str(ws), "bad", "hopf"])
    assert rc != 0


def test_verify_unknown_suite(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    assert main(["verify", str(ws), "s3", "nope"]) == 2


def test_verify_unknown_target(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    assert main(["verify", str(ws), "ghost", "hopf"]) == 2


def test_verify_parse_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), "x", "hopf"]) == 2


def test_verify_smash_pipeline(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    assert main(["verify", str(ws), "k3s3", "smash-pipeline"]) == 0


def test_verify_smash_pipeline_refuses_a_broken_action(tmp_path, capsys):
    # one flipped action cell breaks the module law; the pipeline's builders
    # each require their hypotheses, so it is refused before any smash report
    ws = write_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    doc["objects"]["k3s3"]["action"][1][0][0] = "0"    # was "1": (0 2 1) fixes e_0
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "k3s3", "smash-pipeline"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("refused:") and "witness: (1, 0)" in err


def test_verify_json_report(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    out = tmp_path / "rep.json"
    assert main(["--json", str(out), "verify", str(ws), "z2", "hopf"]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] and payload["tool_version"] == __version__
    assert len(payload["input_hash"]) == 64


def test_construct_double_roundtrip(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    out = tmp_path / "dz2.json"
    assert main(["construct", str(ws), "double:z2", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "double_z2" in doc["objects"]
    assert doc["objects"]["double_z2"]["dim"] == 4
    # reload and verify through the CLI
    assert main(["verify", str(out), "double_z2", "hopf"]) == 0


def test_construct_guard_passthrough(tmp_path, capsys):
    ws = write_workspace(tmp_path / "ws.json")
    out = tmp_path / "nope.json"
    rc = main(["construct", str(ws), "smash-wha:adj-s3", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "quantum-commutativity" in err


def test_construct_unknown_recipe(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    assert main(["construct", str(ws), "frobnicate:z2", str(tmp_path / "x.json")]) == 2


def test_construct_dual_twice_is_identity(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    assert main(["construct", str(ws), "dual:z2", str(d1)]) == 0
    assert main(["construct", str(d1), "dual:dual_z2", str(d2)]) == 0
    orig = json.loads((tmp_path / "ws.json").read_text())
    dd = json.loads(d2.read_text())["objects"]["dual_dual_z2"]
    # double dual of kZ2 has the group-algebra tensors on the nose
    assert dd["mult"] == [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]


def test_construct_decompose_hr(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    # add a QT object over s3
    doc = json.loads(ws.read_text())
    doc["objects"]["qs3"] = {"type": "qt", "host": "s3",
                             "R": [["1" if i == j == 0 else "0" for j in range(6)]
                                   for i in range(6)]}
    ws.write_text(json.dumps(doc))
    out = tmp_path / "dec.json"
    assert main(["construct", str(ws), "decompose-hr:qs3", str(out)]) == 0
    blocks = json.loads(out.read_text())["objects"]["decompose-hr_qs3"]["blocks"]
    assert sorted(len(b) for b in blocks) == [1, 2, 3]


def test_workspace_groupoid_object(tmp_path):
    # pair groupoid on 2 objects = M_2(k) in the documented JSON format
    morphs = [{"src": j, "dst": i} for i in range(2) for j in range(2)]
    idx = {(m["dst"], m["src"]): a for a, m in enumerate(morphs)}
    compose = [[idx[(mi["dst"], mj["src"])] if mi["src"] == mj["dst"] else None
                for mj in morphs] for mi in morphs]
    doc = {"objects": {"pair2": {
        "type": "groupoid", "objects": 2, "morphisms": morphs,
        "compose": compose,
        "identities": [idx[(0, 0)], idx[(1, 1)]],
        "inverses": [idx[(m["src"], m["dst"])] for m in morphs]}}}
    ws = tmp_path / "g.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "pair2", "weak-hopf"]) == 0


@pytest.mark.parametrize("field", ["morphisms", "objects", "compose", "identities",
                                   "inverses", "src", "dst"])
def test_missing_groupoid_field_is_named(tmp_path, capsys, field):
    morphs = [{"src": 0, "dst": 0}]
    doc = {"objects": {"g": {"type": "groupoid", "objects": 1, "morphisms": morphs,
                             "compose": [[0]], "identities": [0], "inverses": [0]}}}
    if field in ("src", "dst"):
        del morphs[0][field]
        where = "g.morphisms[0]"
    else:
        del doc["objects"]["g"][field]
        where = "g"
    ws = tmp_path / "g.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "g", "weak-hopf"]) == 2
    assert f"object {where!r} has no field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, reason", [
    ("morphisms", 3, "not iterable"), ("compose", 5, "not iterable"),
    ("compose", [[7]], "compose[0][0] = 7"), ("identities", [4], "identities[0] = 4"),
    ("inverses", [9], "inverses[0] = 9"),
    # an index equal to a valid one, but not an int
    ("identities", [False], "identities[0] = False"),
    ("compose", [[False]], "compose[0][0] = False"),
    ("morphisms", [{"src": False, "dst": 0}], "sources[0] = False"),
    ("objects", "1", "objects must be a list or an integer"),
    ("objects", True, "objects must be a list or an integer"),
    ("objects", 1.7, "objects must be a list or an integer")],
    ids=["morphisms-int", "compose-int", "compose-index", "identities-index", "inverses-index",
         "identities-bool", "compose-bool", "src-bool", "objects-str", "objects-bool",
         "objects-float"])
def test_malformed_groupoid_field_is_refused(tmp_path, capsys, field, value, reason):
    doc = {"objects": {"g": {"type": "groupoid", "objects": 1,
                             "morphisms": [{"src": 0, "dst": 0}],
                             "compose": [[0]], "identities": [0], "inverses": [0]}}}
    doc["objects"]["g"][field] = value
    ws = tmp_path / "g.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "g", "weak-hopf"]) == 2
    err = capsys.readouterr().err
    assert "object 'g'" in err and reason in err


# well-typed groupoids that break a law: (objects, (src, dst) per morphism,
# compose, identities, inverses), where compose[i][j] is i after j
RETRACT = (2, [(0, 0), (0, 1), (0, 0), (1, 0), (1, 1)],    # id_a, i, e = s i, s, id_b
           [[0, None, 2, 3, None], [1, None, 1, 4, None], [2, None, 2, 3, None],
            [None, 2, None, None, 3], [None, 1, None, None, 4]], [0, 4], [0, 3, 2, 1, 4])


@pytest.mark.parametrize("groupoid, reason", [
    ((1, [(0, 0), (0, 0)], [[0, 1]], [0], [0, 1]), "groupoid compose has 1 rows, expected 2"),
    ((1, [(0, 0), (0, 0)], [[0, 1], [1, 0]], [0, 1], [0, 1]),
     "groupoid identities has length 2, expected 1"),
    ((2, [(0, 0), (1, 1)], [[1, None], [None, 1]], [0, 1], [0, 1]),
     "composite endpoints broken at (0, 0)"),
    ((1, [(0, 0), (0, 0)], [[1, 0], [0, 0]], [0], [0, 1]),
     "groupoid not associative at (0, 0, 1)"),
    ((2, [(0, 0), (1, 1)], [[0, None], [None, 1]], [1, 0], [0, 1]),
     "identity of object 0 has wrong endpoints"),
    # here 1 after its declared inverse 0 is 1, not the identity 0; in RETRACT,
    # i after s is id_b but s after i is e, not id_a
    ((1, [(0, 0), (0, 0)], [[0, 1], [1, 0]], [0], [0, 0]), "inverse law broken at 1"),
    (RETRACT, "inverse law broken at 1"),
], ids=["compose-rows", "identities-length", "composite-endpoints", "not-associative",
        "identity-endpoints", "no-right-inverse", "no-left-inverse"])
def test_groupoid_that_breaks_a_law_is_refused(tmp_path, capsys, groupoid, reason):
    objects, ends, compose, identities, inverses = groupoid
    doc = {"objects": {"g": {"type": "groupoid", "objects": objects,
                             "morphisms": [{"src": a, "dst": b} for a, b in ends],
                             "compose": compose, "identities": identities,
                             "inverses": inverses}}}
    ws = tmp_path / "g.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "g", "weak-hopf"]) == 2
    assert f"error: object 'g': {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("reshape", [lambda a: [a[0][:-1]] + a[1:], lambda a: a[:-1],
                                     lambda a: [row + ["0"] for row in a]],
                         ids=["short-first-row", "missing-last-row", "extra-column"])
def test_antipode_of_the_wrong_shape_is_refused(tmp_path, capsys, reshape):
    h = _as_json(ser_hopf(dm.k_s3()))
    h["antipode"] = reshape(h["antipode"])
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"objects": {"h": h}}))
    assert main(["verify", str(ws), "h", "hopf"]) == 2
    assert "object 'h'" in capsys.readouterr().err


def test_workspace_rejects_dangling_reference(tmp_path):
    doc = {"objects": {"q": {"type": "qt", "host": "ghost", "R": [["1"]]}}}
    ws = tmp_path / "dangling.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "q", "qt"]) == 2


def test_demo_case_study_serialization(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "s3-groupoid"]) == 0
    payload = json.loads((tmp_path / "s3-groupoid-report.json").read_text())
    cs = payload["extra"]["case_study"]
    assert cs["t"] == 3
    assert len(cs["stabilizer"]) == 2
    assert len(cs["matrix_units"]) == 3
    assert len(cs["iso_matrix"]) == 18


def _starter_workspace(path):
    import importlib.util
    from pathlib import Path
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_workspace.py"
    spec = importlib.util.spec_from_file_location("make_workspace", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.main(str(path)) == 0
    return path


def test_verify_qt_checks_r_once(tmp_path, count_calls):
    from hopfsmash import qtriang
    ws = _starter_workspace(tmp_path / "ws.json")
    calls = count_calls(qtriang, "verify_qt")
    assert main(["verify", str(ws), "qs3-trivial", "qt"]) == 0
    assert len(calls) == 1


def test_construct_transmute_verifies_once(tmp_path, count_calls):
    from hopfsmash import qtriang
    ws = _starter_workspace(tmp_path / "ws.json")
    calls = count_calls(qtriang, "verify_braided_group")
    out = tmp_path / "bg.json"
    assert main(["construct", str(ws), "transmute:qs3-trivial", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads(out.read_text())["report"]
    assert report["subject"] == "braided_group" and report["ok"]
    assert [c["axiom"] for c in report["checks"]] == [
        "braided.counit_law", "braided.coassociativity", "adjoint_unital",
        "adjoint_module_law", "adjoint_measuring", "comult_R_module_map",
        "braided_antipode_identity"]


def test_construct_double_verifies_once(tmp_path, count_calls):
    from hopfsmash import hopfcore, qtriang
    ws = _starter_workspace(tmp_path / "ws.json")
    hopf = count_calls(hopfcore, "verify_hopf")
    qt = count_calls(qtriang, "verify_qt")
    assert main(["construct", str(ws), "double:s3", str(tmp_path / "d.json")]) == 0
    assert len([h for h in hopf if h.dim == 36]) == 1
    assert len([q for q in qt if q.host.dim == 36]) == 1


def test_construct_double_leaves_the_shared_report_alone(tmp_path, monkeypatch):
    from hopfsmash import cli
    from hopfsmash.hopfcore import verify_hopf
    ws = _starter_workspace(tmp_path / "ws.json")
    built = []
    real = cli.drinfeld_double
    monkeypatch.setattr(cli, "drinfeld_double", lambda h: built.append(real(h)) or built[-1])
    out = tmp_path / "d.json"
    assert main(["construct", str(ws), "double:z2", str(out)]) == 0
    ((dd, q),) = built
    assert [c.name for c in dd.report.checks] == [c.name for c in verify_hopf(dd).checks]
    report = json.loads(out.read_text())["report"]
    assert report["subject"] == "hopf"
    assert [c["axiom"] for c in report["checks"]] == (
        [c.name for c in dd.report.checks] + ["qt." + c.name for c in q.report.checks])


@pytest.mark.parametrize("recipe, pin", [
    ("double:s3", "ef94a9cf4b5a46a2"),
    ("smash-wha:k3s3", "036c33ad5bfbe305"),
    ("build-B:k3s3", "ef83a02548e26eb3"),
])
def test_construct_objects_pinned(tmp_path, recipe, pin):
    # the written object, byte for byte: compact json.dumps of the member
    # reproduces the text of the file
    ws = _starter_workspace(tmp_path / "ws.json")
    out = tmp_path / "out.json"
    assert main(["construct", str(ws), recipe, str(out)]) == 0
    text = out.read_text()
    member = json.dumps(json.loads(text)["objects"])
    assert member in text
    assert hashlib.sha256(member.encode()).hexdigest()[:16] == pin


def test_construct_heisenberg_verifies_once(tmp_path, count_calls):
    from hopfsmash import hopfcore
    ws = _starter_workspace(tmp_path / "ws.json")
    calls = count_calls(hopfcore, "verify_algebra")
    assert main(["construct", str(ws), "heisenberg:s3", str(tmp_path / "h.json")]) == 0
    assert len([a for a in calls if a.dim == 36]) == 1


@pytest.mark.parametrize("tensor", ["mult", "action"])
@pytest.mark.parametrize("length", ["short", "long"])
def test_ragged_tensor_is_refused_not_padded(tmp_path, capsys, tensor, length):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    obj = doc["objects"]["k3s3"]
    row = (obj["algebra"]["mult"] if tensor == "mult" else obj["action"])[0][1]
    if length == "short":
        row.pop()
    else:
        row.append("1")
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "k3s3", "module-algebra"]) == 2
    err = capsys.readouterr().err
    assert "object 'k3s3'" in err and "ragged" in err


def test_object_that_is_not_a_mapping_is_refused(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    doc["objects"]["k3s3"] = 5
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "k3s3", "module-algebra"]) == 2
    assert "object 'k3s3' must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("doc, argv, reason", [
    ([1, 2], ["verify", "{ws}", "k3s3", "module-algebra"],
     "top level of a workspace must be a JSON object"),
    ([1, 2], ["construct", "{ws}", "double:s3", "{out}"],
     "top level of a workspace must be a JSON object"),
    ({"objects": [1, 2]}, ["construct", "{ws}", "double:s3", "{out}"],
     "workspace 'objects' must be a mapping"),
], ids=["verify", "construct", "objects-not-a-mapping"])
def test_workspace_that_is_not_an_object_is_refused(tmp_path, capsys, doc, argv, reason):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main([a.format(ws=ws, out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("basis, reason", [
    ([["0", "1", "0", "0", "0"]], "dim H = 6 entries"),
    ([["0", "1", "0", "0", "0", "0", "0"]], "dim H = 6 entries"),
    ([["0", "1", "0", "0", "0", "0"], ["0", "2", "0", "0", "0", "0"]], "linearly dependent"),
], ids=["short", "long", "dependent"])
@pytest.mark.parametrize("command", ["verify", "construct"])
def test_subcoalgebra_basis_is_checked_when_read(tmp_path, capsys, basis, reason, command):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    doc["objects"]["transpositions"]["basis"] = basis
    ws.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = (["verify", str(ws), "transpositions", "adjoint-stable"] if command == "verify"
            else ["construct", str(ws), "nd:transpositions", str(out)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "object 'transpositions'" in err and reason in err
    assert not out.exists()


def test_recipe_without_target_is_refused(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    out = tmp_path / "out.json"
    assert main(["construct", str(ws), "double:", str(out)]) == 2
    assert "names no target" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("recipe, reason", [
    ("group-algebra:z2,s3", "names 2 targets; group-algebra takes 1"),
    ("dual:s3,nonsense", "names 2 targets; dual takes 1"),
    ("double:z2,nonsense", "names 2 targets; double takes 1"),
    ("heisenberg:z2,s3", "names 2 targets; heisenberg takes 1"),
    ("smash:k3s3,qs3-trivial", "names 2 targets; smash takes 1"),
    ("smash-wha:k3s3,qs3-trivial,extra", "names 3 targets; smash-wha takes 1 or 2"),
    ("build-B:k3s3,,qs3-trivial", "has an empty target"),
    ("transmute:qs3-trivial,nonsense", "names 2 targets; transmute takes 1"),
    ("nd:transpositions,nonsense", "names 2 targets; nd takes 1"),
    ("decompose-hr:qs3-trivial,", "has an empty target"),
], ids=lambda x: x.partition(":")[0] if ":" in x else "")
def test_recipe_with_the_wrong_targets_is_refused(tmp_path, capsys, recipe, reason):
    # each op takes one target, smash-wha and build-B one or two; a target
    # past those, or an empty one, is refused before anything is built
    ws = _starter_workspace(tmp_path / "ws.json")
    out = tmp_path / "out.json"
    assert main(["construct", str(ws), recipe, str(out)]) == 2
    err = capsys.readouterr().err
    assert f"recipe {recipe!r} {reason}" in err
    assert "Traceback" not in err and not out.exists()


def test_smash_wha_takes_its_qt_as_a_second_target(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    out = tmp_path / "out.json"
    assert main(["construct", str(ws), "smash-wha:k3s3,qs3-trivial", str(out)]) == 0
    assert "smash-wha_k3s3_qs3-trivial" in json.loads(out.read_text())["objects"]


@pytest.mark.parametrize("argv, reason", [
    (["verify", "{ws}", "k3s3", "weak-hopf"],
     "'k3s3' of type 'module-algebra' is not a weak Hopf algebra"),
    (["verify", "{ws}", "qs3-trivial", "weak-qt"], "'qs3-trivial' is not a weak-qt structure"),
    (["construct", "{ws}", "doubles3", "{out}"], "recipe must look like 'op:target"),
], ids=["not-weak-hopf", "not-weak-qt", "recipe-without-colon"])
def test_target_or_recipe_of_the_wrong_form_is_refused(tmp_path, capsys, argv, reason):
    ws = _starter_workspace(tmp_path / "ws.json")
    out = tmp_path / "out.json"
    assert main([a.format(ws=ws, out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "Traceback" not in err and not out.exists()


def test_host_that_is_not_hopf_is_refused_by_its_own_row(tmp_path, capsys):
    # kS3 with S = id fails antipode_left; a smash construction over it is
    # refused by that row, not by a theorem downstream of the host
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    h = dm.k_s3()
    doc["objects"]["hs3"] = _as_json(ser_hopf(HopfData(h.algebra, h.coalgebra,
                                                       LinearMap.identity(h.dim))))
    doc["objects"]["k3s3"]["host"] = "hs3"
    ws.write_text(json.dumps(doc))
    rep = tmp_path / "rep.json"
    assert main(["--json", str(rep), "verify", str(ws), "hs3", "hopf"]) == 1
    failed = [c for c in json.loads(rep.read_text())["report"]["checks"]
              if c["status"] == "fail"]
    assert failed[0] == {"axiom": "antipode_left", "status": "fail", "witness": [3]}
    capsys.readouterr()
    out = tmp_path / "out.json"
    for argv in (["verify", str(ws), "k3s3", "smash-pipeline"],
                 ["construct", str(ws), "smash-wha:k3s3", str(out)],
                 ["construct", str(ws), "build-B:k3s3", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "refused: hypothesis violated: hopf:antipode_left (witness: (3,))\n", argv
        assert not out.exists()


def test_verify_qt_corrupted_r_reports_witness(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    # R = 1 (x) 1 + t (x) 1 for the transposition t = (0 2 1): t is not central,
    # so R Delta(h) = Delta^cop(h) R fails on some h that does not commute with t
    doc["objects"]["qs3-trivial"]["R"][1][0] = "1"
    ws.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    assert main(["--json", str(out), "verify", str(ws), "qs3-trivial", "qt"]) == 1
    assert "refused" not in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    failed = {c["axiom"]: c.get("witness") for c in payload["report"]["checks"]
              if c["status"] == "fail"}
    (h,) = failed["intertwines_comult"]
    table = doc["objects"]["s3"]["table"]
    assert table[1][h] != table[h][1]


def test_global_flags_before_subcommand(tmp_path):
    out = tmp_path / "before.json"
    assert main(["--json", str(out), "--seed", "3", "demo", "double-z2"]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_global_flags_after_subcommand(tmp_path):
    # the form in the cli docstring: hopfsmash demo <name> [--seed N] [--json PATH]
    out = tmp_path / "after.json"
    assert main(["demo", "double-z2", "--seed", "3", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_global_flags_after_verify(tmp_path):
    ws = write_workspace(tmp_path / "ws.json")
    out = tmp_path / "rep.json"
    assert main(["verify", str(ws), "z2", "hopf", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["ok"] is True


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_flags_of_one_call_do_not_reach_the_next(tmp_path, monkeypatch, before):
    # one parser serves every call of main in a process: --json and --seed of
    # the first call must not carry over to the second
    from hopfsmash import cli
    seen = []
    monkeypatch.setattr(cli, "cmd_demo", lambda *args: seen.append(args) or 0)
    flags = ["--json", str(tmp_path / "first.json"), "--seed", "3"]
    assert main(flags + ["demo", "double-z2"] if before else ["demo", "double-z2"] + flags) == 0
    assert main(["demo", "double-z2"]) == 0
    assert seen == [("double-z2", 3, str(tmp_path / "first.json")), ("double-z2", 0, None)]
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)    # where a demo without --json writes its report
    out = tmp_path / "real.json"
    assert main(["demo", "double-z2", "--json", str(out)]) == 0
    out.unlink()
    assert main(["demo", "double-z2"]) == 0
    assert not out.exists() and (tmp_path / "double-z2-report.json").exists()


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_construct_writes_its_json_report(tmp_path, before):
    # --json is a global flag: construct writes the report with verify's keys
    ws = write_workspace(tmp_path / "ws.json")
    out, rep = tmp_path / "dz2.json", tmp_path / "rep.json"
    args = ["construct", str(ws), "double:z2", str(out)]
    flag = ["--json", str(rep)]
    assert main(flag + args if before else args + flag) == 0
    payload, doc = json.loads(rep.read_text()), json.loads(out.read_text())
    assert list(payload) == ["tool_version", "input_hash", "command", "ok", "report"]
    assert payload["tool_version"] == __version__ and payload["ok"] is True
    assert payload["input_hash"] == hashlib.sha256(ws.read_bytes()).hexdigest()
    assert payload["command"] == ["construct", str(ws), "double:z2", str(out)]
    assert payload["report"] == doc["report"] and payload["report"]["ok"] is True


def test_construct_to_a_path_that_cannot_be_opened_exits_2(tmp_path, capsys):
    ws = write_workspace(tmp_path / "ws.json")
    out = str(tmp_path / "nodir" / "out.json")
    assert main(["construct", str(ws), "double:z2", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["demo", "verify", "construct"])
def test_json_report_to_a_path_that_cannot_be_opened_exits_2(tmp_path, capsys, command):
    ws = write_workspace(tmp_path / "ws.json")
    rep = str(tmp_path / "nodir" / "r.json")
    argv = {"demo": ["demo", "double-z2"],
            "verify": ["verify", str(ws), "z2", "hopf"],
            "construct": ["construct", str(ws), "double:z2", str(tmp_path / "dz2.json")]}
    assert main(["--json", rep] + argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {rep!r}: ") and err.count("\n") == 1


def test_short_r_is_rejected_not_padded(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    doc["objects"]["qs3-trivial"]["R"] = [["1"]]
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "qs3-trivial", "qt"]) == 2
    assert "6 x 6" in capsys.readouterr().err


def test_short_weak_r_is_rejected_not_padded(tmp_path, capsys):
    morphs = [{"src": j, "dst": i} for i in range(2) for j in range(2)]
    idx = {(m["dst"], m["src"]): a for a, m in enumerate(morphs)}
    compose = [[idx[(mi["dst"], mj["src"])] if mi["src"] == mj["dst"] else None
                for mj in morphs] for mi in morphs]
    full = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    doc = {"objects": {
        "pair2": {"type": "groupoid", "objects": 2, "morphisms": morphs,
                  "compose": compose, "identities": [idx[(0, 0)], idx[(1, 1)]],
                  "inverses": [idx[(m["src"], m["dst"])] for m in morphs]},
        "wq": {"type": "weak-qt", "host": "pair2", "R": full, "Rbar": [["1"]]}}}
    ws = tmp_path / "g.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "wq", "weak-qt"]) == 2
    assert "wq.Rbar" in capsys.readouterr().err


@pytest.mark.parametrize("cells, scalar", [([(0, 1, 0)], "1/0"), ([(0, 1, 0)], 1.5),
                                           ([(0, 0, 0)], True),
                                           ([(0, 1, 0), (1, 0, 0)], "1/0")],
                         ids=["zero-denominator", "float", "bool",
                              "repeated-zero-denominator"])
def test_workspace_scalar_is_refused(tmp_path, capsys, cells, scalar):
    # True sits where kZ2 has a 1, so reading it as 1 would pass every check;
    # a repeated token is parsed once, and must still be refused
    h = _as_json(ser_hopf(dm.k_z2()))
    for i, j, k in cells:
        h["mult"][i][j][k] = scalar
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"objects": {"h": h}}))
    assert main(["verify", str(ws), "h", "hopf"]) == 2
    assert "object 'h'" in capsys.readouterr().err


def test_false_in_r_is_refused(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    doc["objects"]["qs3-trivial"]["R"][0][1] = False
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "qs3-trivial", "qt"]) == 2
    assert "qs3-trivial.R" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["mult", "comult", "unit", "counit", "antipode"])
@pytest.mark.parametrize("scalar", ["1/0", 1.5, True, False, None, [1]],
                         ids=["zero-denominator", "float", "true", "false", "null", "list"])
def test_every_bad_scalar_in_every_field_is_refused(tmp_path, capsys, field, scalar):
    # the last cell of kZ2's mult is its last "0": a false there is read after
    # every other zero token, so a memo keyed on values would take it for 0
    h = _as_json(ser_hopf(dm.k_z2()))
    cell = h[field]
    while isinstance(cell[-1], list):
        cell = cell[-1]
    cell[-1] = scalar
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"objects": {"h": h}}))
    assert main(["verify", str(ws), "h", "hopf"]) == 2
    assert "object 'h'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["dim", "mult"])
def test_missing_field_is_named(tmp_path, capsys, field):
    h = _as_json(ser_hopf(dm.k_z2()))
    del h[field]
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"objects": {"h": h}}))
    assert main(["verify", str(ws), "h", "hopf"]) == 2
    assert f"object 'h' has no field {field!r}" in capsys.readouterr().err


def test_missing_algebra_field_is_named(tmp_path, capsys):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    del doc["objects"]["k3s3"]["algebra"]["dim"]
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "k3s3", "module-algebra"]) == 2
    assert "object 'k3s3.algebra' has no field 'dim'" in capsys.readouterr().err


def test_verify_group_hopf_verifies_once(tmp_path, count_calls):
    from hopfsmash import hopfcore
    ws = _starter_workspace(tmp_path / "ws.json")
    calls = count_calls(hopfcore, "verify_hopf")
    out = tmp_path / "rep.json"
    assert main(["--json", str(out), "verify", str(ws), "s3", "hopf"]) == 0
    assert len(calls) == 1
    expected = hopfcore.verify_hopf(dm.k_s3(), "hopf:s3").to_dict()
    assert json.loads(out.read_text())["report"] == expected


def test_verify_hopf_from_disk_verifies_once(tmp_path, count_calls):
    from hopfsmash import hopfcore
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps({"objects": {"h": _as_json(ser_hopf(dm.k_z2()))}}))
    calls = count_calls(hopfcore, "verify_hopf")
    assert main(["verify", str(ws), "h", "hopf"]) == 0
    assert len(calls) == 1


def _sparse_tensor():
    return Tensor3.from_entries((2, 3, 4), [(0, 1, 3, Fraction(-2, 3)), (1, 2, 0, 5),
                                            (1, 0, 2, Fraction(7, 4))])


def test_tensor3_written_round_trips():
    t = _sparse_tensor()
    assert Tensor3.from_dense(_as_json(t)) == t


def test_tensor3_written_as_its_dense_array():
    t = _sparse_tensor()
    assert _as_json(t) == [[[rat_str(c) for c in row] for row in plane] for plane in t.dense()]


# ---------------------------------------------------------------------------
# the writer: _encode(doc) is json.dumps of the dense document, byte for byte
# ---------------------------------------------------------------------------

def _dense(x):
    """The dense document: each Tensor3 and TensorElem in x as its nested
    array of `rat_str` tokens, by the rule of the dense serialisers the
    writer replaced."""
    if isinstance(x, Tensor3):
        return [[[rat_str(c) for c in row] for row in plane] for plane in x.dense()]
    if isinstance(x, TensorElem):
        d0, d1 = x.dims
        return [[rat_str(x.terms.get((i, j), 0)) for j in range(d1)] for i in range(d0)]
    if type(x) in (list, tuple):
        return type(x)(map(_dense, x))
    if isinstance(x, dict):
        return {k: _dense(v) for k, v in x.items()}
    return x


RATS = st.builds(lambda p, q: str(Fraction(p, q)), st.integers(-10**9, 10**9),
                 st.integers(1, 10**4))
TOKEN_ROWS = st.lists(RATS, max_size=6).map(Tokens)
COEFFS = st.one_of(st.integers(-10**6, 10**6),
                   st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**4)))


@st.composite
def tensors(draw, legs):
    """A Tensor3 (legs 3) or TensorElem (legs 2) with every dim in 0..4, and
    up to 12 entries: all zero when there are none or they cancel."""
    dims = tuple(draw(st.integers(0, 4)) for _ in range(legs))
    entries = []
    if all(dims):
        index = st.tuples(*(st.integers(0, d - 1) for d in dims))
        entries = draw(st.lists(st.tuples(index, COEFFS), max_size=12))
    if legs == 3:
        return Tensor3.from_entries(dims, [(*idx, c) for idx, c in entries])
    return TensorElem.from_entries(dims, entries)


def _mutated(row, at, value):
    row = Tokens(row)
    row[at % len(row)] = value
    return row


# a Tokens row that a test has mutated to hold a non-str, as the malformed
# workspace tests do
MUTATED_ROWS = st.builds(_mutated, st.lists(RATS, min_size=1, max_size=6), st.integers(0, 5),
                         st.one_of(st.booleans(), st.none(), st.integers()))
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u2028\U0001f600'),
                         st.characters()), max_size=8)
JSON_SCALARS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())
DOCS = st.recursive(
    st.one_of(JSON_SCALARS, TOKEN_ROWS, MUTATED_ROWS, tensors(3), tensors(2)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(TEXT, children, max_size=4),
                               st.dictionaries(JSON_SCALARS, children, max_size=4)),
    max_leaves=24)


@given(DOCS)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_encode_is_json_dumps(doc):
    assert _encode(doc) == json.dumps(_dense(doc))


@pytest.mark.parametrize("t", [Tensor3.from_entries(dims, []) for dims in
                               [(0, 0, 0), (0, 2, 3), (2, 0, 3), (2, 3, 0), (1, 1, 1)]]
                         + [TensorElem.from_entries(dims, []) for dims in
                            [(0, 0), (0, 3), (3, 0), (1, 1)]], ids=repr)
def test_encode_writes_an_empty_or_zero_tensor_dense(t):
    assert _encode(t) == json.dumps(_dense(t))


def test_encode_joins_token_rows():
    assert _encode(Tokens(["-2/3", "0", "5"])) == '["-2/3", "0", "5"]'
    assert _encode(Tokens()) == "[]" == json.dumps(Tokens())
    assert _encode({"t": [Tokens([""]), Tokens(["1", True])]}) == '{"t": [[""], ["1", true]]}'


def _token_rows(x):
    if isinstance(x, Tokens):
        yield x
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _token_rows(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _token_rows(y)


RECIPES = ("group-algebra:s3", "dual:s3", "double:z2", "double:s3", "heisenberg:z2",
           "heisenberg:s3", "smash:k3s3", "smash-wha:k3s3", "build-B:k3s3",
           "transmute:qs3-trivial", "nd:transpositions", "decompose-hr:qs3-trivial")


def _construct_doc(ws, recipe):
    """The document `construct` writes for recipe, less its header."""
    payload, rep = _construct(ws, recipe)
    doc = {"objects": {recipe: payload.pop("constructed")}, "report": rep.to_dict()}
    doc.update(payload)
    return doc


def test_encode_is_json_dumps_on_every_recipe(tmp_path):
    ws = Workspace.load(str(_starter_workspace(tmp_path / "ws.json")))
    out = tmp_path / "out.json"
    for recipe in RECIPES:
        doc = _construct_doc(ws, recipe)
        assert any(_token_rows(doc)), recipe
        assert _encode(doc) == json.dumps(_dense(doc)), recipe
        assert _write_json(str(out), doc)
        assert out.read_text(encoding="utf-8") == _encode(doc), recipe


def test_write_json_holds_one_plane_of_text_at_a_time(tmp_path):
    # B = End(A*) (x) H has dim 54: its dense mult and comult are 2 x 54^3
    # tokens, 99.6 % of them "0".  The document holds the tensors themselves,
    # and the writer streams their text instead of building the whole file.
    import tracemalloc
    ws = Workspace.load(str(_starter_workspace(tmp_path / "ws.json")))
    tracemalloc.start()
    try:
        doc = _construct_doc(ws, "build-B:k3s3")
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _write_json(str(tmp_path / "B.json"), doc)
        written = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (tmp_path / "B.json").stat().st_size > 1_500_000
    assert held < 1_000_000, held
    assert written < 500_000, written


# ---------------------------------------------------------------------------
# malformed fields: the starter workspace plus a serialised kZ2
# ---------------------------------------------------------------------------

SUITE_OF = {"z2": "hopf", "s3": "hopf", "qs3-trivial": "qt", "k3s3": "module-algebra",
            "transpositions": "adjoint-stable", "kz2": "hopf"}


@pytest.fixture(scope="module")
def starter_doc(tmp_path_factory):
    doc = json.loads(_starter_workspace(tmp_path_factory.mktemp("ws") / "ws.json").read_text())
    doc["objects"]["kz2"] = _as_json(ser_hopf(dm.k_z2()))
    return doc


def _replaced(doc, target, path, value):
    """A copy of doc with objects[target][path[0]][path[1]]... set to value."""
    doc = json.loads(json.dumps(doc))
    obj = doc["objects"][target]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return doc


@pytest.mark.parametrize("target, path, value", [
    # a string where an array is expected was read character by character
    ("kz2", ("unit",), "10"),
    ("kz2", ("counit",), "11"),
    ("kz2", ("antipode",), ["10", "01"]),
    ("kz2", ("mult",), [["10", "01"], ["01", "10"]]),
    ("k3s3", ("algebra", "unit"), "100"),
    ("transpositions", ("basis",), ["010000", "001000", "000001"]),
    # a count or a table entry that is not an integer, element names that are
    # not a list, a reference that is not a name
    ("kz2", ("dim",), 2.0),
    ("k3s3", ("algebra", "dim"), 3.0),
    ("z2", ("elements",), 5),
    ("z2", ("elements",), None),
    ("z2", ("elements",), {"e": 1, "g": 2}),
    ("z2", ("table",), 3),
    ("z2", ("table", 0, 0), 0.0),
    ("z2", ("table", 0, 1), True),
    ("z2", ("table", 0, 0), False),
    ("qs3-trivial", ("host",), ["s3"]),
], ids=["unit-string", "counit-string", "antipode-row-strings", "mult-cell-strings",
        "algebra-unit-string", "basis-strings", "dim-float", "algebra-dim-float",
        "elements-int", "elements-null", "elements-object", "table-int", "table-entry-float",
        "table-entry-true", "table-entry-false", "host-list"])
def test_malformed_field_is_refused(tmp_path, capsys, starter_doc, target, path, value):
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(_replaced(starter_doc, target, path, value)))
    assert main(["verify", str(ws), target, SUITE_OF[target]]) == 2
    assert f"object {target!r}" in capsys.readouterr().err


SCALARS = st.one_of(st.text(max_size=6), st.integers(-3, 9), st.floats(), st.booleans(),
                    st.none())
VALUES = st.one_of(SCALARS, st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                                     max_size=4),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=3))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(SUITE_OF)), st.data())
def test_fuzzed_workspace_field_exits_cleanly(starter_doc, tmp_path_factory, target, data):
    # one field of one object (or of a module algebra's algebra) replaced by a
    # value of any JSON type, or a list truncated: verify returns 0, 1 or 2,
    # and 2 says why
    obj = starter_doc["objects"][target]
    paths = [(f,) for f in obj] + [(f, g) for f in obj if isinstance(obj[f], dict)
                                   for g in obj[f]]
    path = data.draw(st.sampled_from(paths))
    old = obj[path[0]] if len(path) == 1 else obj[path[0]][path[1]]
    choices = [VALUES]
    if isinstance(old, list) and old:
        choices.append(st.integers(0, len(old) - 1).map(lambda k: old[:k]))
    value = data.draw(st.one_of(choices))
    ws = tmp_path_factory.getbasetemp() / "fuzz.json"
    ws.write_text(json.dumps(_replaced(starter_doc, target, path, value)))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(["verify", str(ws), target, SUITE_OF[target]])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "error:" in err.getvalue()


def test_output_digests_prints_one_line_per_written_file(monkeypatch, capsys):
    import importlib
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    digests = importlib.import_module("output_digests")
    assert digests.main() == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = [line.split("  ") for line in lines]
    assert len(lines) == 26 == len({name for _, name in pairs})
    assert all(len(h) == 64 and int(h, 16) >= 0 for h, _ in pairs)
    assert [name for _, name in pairs][-6:] == [f"{d}-report.json" for d in sorted(DEMOS)]


def test_stage_times_prints_every_stage_and_leaves_the_verifiers_in_place(monkeypatch, capsys):
    import importlib
    from pathlib import Path

    from hopfsmash import hopfcore, qtriang
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    stage_times = importlib.import_module("stage_times")
    verifiers = (hopfcore.verify_hopf, qtriang.verify_qt,
                 hopfcore.intertwining_failures, hopfcore.hexagon_sides)
    nd_timed = [vars(owner)[name] for owner, name in stage_times.ND_PARTS.values()]
    assert stage_times.main(["z2", "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()[3:]
    rows = [line.split("|")[1].strip() for line in lines]
    assert [r.split("`")[1] for r in rows] == [s.strip() for s in stage_times.STAGES]
    assert (hopfcore.verify_hopf, qtriang.verify_qt,
            hopfcore.intertwining_failures, hopfcore.hexagon_sides) == verifiers
    assert [vars(owner)[name] for owner, name in stage_times.ND_PARTS.values()] == nd_timed
    # the N_D transport closes the table, split into its two almost-triangular
    # reports, its N_D and N_W builds and their Wedderburn blocks: each ran,
    # and, timed apart, they fit inside it
    nd_rows = [(line.split("`")[1], float(line.split("|")[2])) for line in lines[-4:]]
    assert [name for name, _ in nd_rows] == [
        "nd_transport_report", "almost_triangular_wha_report", "adjoint_stable_algebra",
        "wedderburn_blocks"]
    assert all(t > 0 for _, t in nd_rows) and sum(t for _, t in nd_rows[1:]) <= nd_rows[0][1]
    # verify_qt is split into its intertwining scan and its hexagons: both
    # ran, and, timed apart, they fit inside it
    times = {line.split("`")[1]: float(line.split("|")[2]) for line in lines}
    parts = [times[row.strip()] for row in stage_times.QT_PARTS]
    assert [row.strip() for row in stage_times.QT_PARTS] == ["intertwines_comult", "hexagon_sides"]
    assert all(s > 0 for s in parts) and sum(parts) <= times["verify_qt"]
    assert stage_times.main(["s3", "--runs", "1", "--skip", "double_smash_decomposition"]) == 0
    assert "double_smash_decomposition" not in capsys.readouterr().out
    assert stage_times.main(["z2", "--runs", "1", "--skip", "nd_transport_report"]) == 0
    out = capsys.readouterr().out
    assert "nd_transport_report" not in out
    assert not any(f"`{row.strip()}` (in the above)" in out for row in stage_times.ND_PARTS)
    with pytest.raises(SystemExit):
        stage_times.main(["q5"])
    with pytest.raises(SystemExit):
        stage_times.main(["z2", "--skip", "  adjoint_stable_algebra"])


def test_stage_times_splits_the_decomposition_and_restores_smashcons(monkeypatch, capsys):
    import importlib
    from pathlib import Path

    from hopfsmash import hopfcore, smashcons
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    stage_times = importlib.import_module("stage_times")
    timed = stage_times.DECOMPOSITION_PARTS.values()
    before = [vars(owner)[name] for owner, name in timed]
    assert stage_times.main(["z2", "--runs", "1"]) == 0
    assert [vars(owner)[name] for owner, name in timed] == before
    rows = {line.split("`")[1]: float(line.split("|")[2])
            for line in capsys.readouterr().out.splitlines()[3:]}
    parts = [rows[row.strip()] for row in stage_times.DECOMPOSITION_PARTS]
    # each part ran, and the parts, timed apart, fit inside the whole; the
    # scan reads Heis (x) H off its factors, so no tensor_algebra row is left
    assert all(s > 0 for s in parts) and sum(parts) <= rows["double_smash_decomposition"]
    assert stage_times.DECOMPOSITION_PARTS["  total_map_multiplicative"] == (
        smashcons, "tensor_map_failures")
    # the centralizer elimination of C_equals_full_centralizer is timed on
    # the method itself, the one StructureAlgebra.centralizer_basis
    assert stage_times.DECOMPOSITION_PARTS["  centralizer_basis"] == (
        hopfcore.StructureAlgebra, "centralizer_basis")
    assert "tensor_algebra" not in rows
    assert stage_times.main(["z2", "--runs", "1", "--skip", "double_smash_decomposition"]) == 0
    out = capsys.readouterr().out
    assert not any(f"`{row.strip()}`" in out for row in stage_times.DECOMPOSITION_PARTS)
    with pytest.raises(SystemExit):
        stage_times.main(["z2", "--skip", "  smash_carrier"])


def test_stage_times_splits_the_double_build_and_restores_the_kernels(monkeypatch, capsys):
    import importlib
    from pathlib import Path

    from hopfsmash import hopfcore
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    stage_times = importlib.import_module("stage_times")
    kernels = (hopfcore.twisted_product, Tensor3.kron, hopfcore.generating_set,
               hopfcore.comult_multiplicative_failures)
    assert stage_times.main(["s3", "--runs", "1", "--skip", "double_smash_decomposition"]) == 0
    assert (hopfcore.twisted_product, Tensor3.kron, hopfcore.generating_set,
            hopfcore.comult_multiplicative_failures) == kernels
    rows = {line.split("`")[1]: float(line.split("|")[2])
            for line in capsys.readouterr().out.splitlines()[3:]}
    # the product, the coproduct and the certified generators ran, and fit
    # inside the build; the Delta scan ran, and fits inside verify_hopf
    assert rows["product"] > 0 and rows["coproduct"] > 0 and rows["generating_set"] > 0
    assert rows["product"] + rows["coproduct"] + rows["generating_set"] <= rows["build"]
    assert 0 < rows["comult_multiplicative_failures"] <= rows["verify_hopf"]
    with pytest.raises(SystemExit):
        stage_times.main(["z2", "--skip", "  coproduct"])


def test_stage_times_against_a_checkout_times_both_in_fresh_interpreters(monkeypatch, capsys,
                                                                          tmp_path):
    import importlib
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "scripts"))
    stage_times = importlib.import_module("stage_times")
    # this tree against itself: every stage of both, and a count of wins
    # out of the runs; nothing is timed in this process
    assert stage_times.main(["z2", "--runs", "2", "--skip", "double_smash_decomposition",
                             "nd_transport_report", "--against", str(root)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("median of 2 runs, each in a fresh interpreter")
    assert lines[1] == f"| stage | this tree (s) | {root} (s) | this tree faster |"
    cells = [[c.strip() for c in line.split("|")[1:-1]] for line in lines[3:]]
    skipped = {"double_smash_decomposition", "nd_transport_report"}
    owners = {**stage_times.DECOMPOSITION_PARTS, **stage_times.ND_PARTS}
    assert [c[0].split("`")[1] for c in cells] == [
        s.strip() for s in stage_times.STAGES if s.strip() not in skipped and s not in owners]
    assert all(float(c[1]) > 0 and float(c[2]) > 0 and c[3] in ("0/2", "1/2", "2/2")
               for c in cells)
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit):
        stage_times.main(["z2", "--against", str(tmp_path)])


# ---------------------------------------------------------------------------
# the weak Hopf suites on constructed objects, read back from disk
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def constructed(tmp_path_factory):
    """recipe -> the document `construct` writes for it from the starter workspace."""
    tmp = tmp_path_factory.mktemp("constructed")
    ws = _starter_workspace(tmp / "ws.json")
    docs = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for recipe in ("smash-wha:k3s3", "build-B:k3s3"):
            out = tmp / f"{recipe.replace(':', '_')}.json"
            assert main(["construct", str(ws), recipe, str(out)]) == 0
            docs[recipe] = json.loads(out.read_text())
    return docs


def _moved(cells) -> None:
    """Move the first nonzero entry of a nested list of rational strings to
    the first zero entry of its innermost row."""
    rows = [cells]
    while not isinstance(rows[0][0], str):
        rows = [r for row in rows for r in row]
    row = next(r for r in rows if any(x != "0" for x in r))
    k = next(i for i, x in enumerate(row) if x != "0")
    z = row.index("0")
    row[k], row[z] = "0", row[k]


@pytest.mark.parametrize("recipe", ["smash-wha:k3s3", "build-B:k3s3"])
@pytest.mark.parametrize("broken", [False, True], ids=["built", "comult-cell-moved"])
def test_constructed_weak_hopf_round_trips(tmp_path, capsys, constructed, recipe, broken):
    doc = json.loads(json.dumps(constructed[recipe]))
    name = recipe.replace(":", "_")
    if broken:
        _moved(doc["objects"][name]["comult"])
    ws = tmp_path / "w.json"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), name, "weak-hopf"]) == (1 if broken else 0)
    out = capsys.readouterr().out
    assert out.startswith(f"weak-hopf:{name}: {'FAILED' if broken else 'OK'}")
    assert ("witness=" in out) == broken


def _weak_qt_workspace(path, b_doc, move_r=False):
    r = json.loads(json.dumps(b_doc["R"]))
    if move_r:
        _moved(r)
    path.write_text(json.dumps({"objects": {
        "B": b_doc["objects"]["build-B_k3s3"],
        "rb": {"type": "weak-qt", "host": "B", "R": r, "Rbar": b_doc["Rbar"]}}}))
    return path


@pytest.mark.parametrize("suite", ["weak-qt", "almost-triangular"])
def test_build_b_r_matrix_passes_the_weak_qt_suites(tmp_path, capsys, constructed, suite):
    ws = _weak_qt_workspace(tmp_path / "bq.json", constructed["build-B:k3s3"])
    out = tmp_path / "rep.json"
    assert main(["--json", str(out), "verify", str(ws), "rb", suite]) == 0
    assert capsys.readouterr().out.startswith(f"{suite}:rb: OK")
    assert json.loads(out.read_text())["report"]["subject"] == f"{suite}:rb"


def test_a_moved_r_cell_fails_weak_qt(tmp_path, capsys, constructed):
    ws = _weak_qt_workspace(tmp_path / "bq.json", constructed["build-B:k3s3"], move_r=True)
    assert main(["verify", str(ws), "rb", "weak-qt"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("weak-qt:rb: FAILED") and "witness=" in out


@pytest.mark.parametrize("corrupt", [False, True], ids=["trivial-r", "corrupted-r"])
def test_smash_pipeline_reads_the_qt_its_module_algebra_names(tmp_path, capsys, corrupt):
    ws = _starter_workspace(tmp_path / "ws.json")
    doc = json.loads(ws.read_text())
    doc["objects"]["k3s3"]["qt"] = "qs3-trivial"
    if corrupt:    # R = 1 (x) 1 + t (x) 1 is not an R-matrix, so resolve_qt refuses it
        doc["objects"]["qs3-trivial"]["R"][1][0] = "1"
    ws.write_text(json.dumps(doc))
    assert main(["verify", str(ws), "k3s3", "smash-pipeline"]) == (1 if corrupt else 0)
    assert ("refused:" in capsys.readouterr().err) == corrupt
