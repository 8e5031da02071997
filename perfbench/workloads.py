"""The four benchmark workloads.

A workload has a set-up, which builds and verifies its seeded inputs, and a
job list. Jobs run one after another in one thread (a closed loop: the next
job starts when the previous verdict is in). Each job returns True when its
verdict is right: a genuine input passes and meets its known invariant, or a
fault-injected twin is rejected with a witness that `oracle` confirms.
Jobs flagged `largest` together form the workload's largest instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
import oracle
from hopfsmash.adjstable import (ComoduleData, decompose_hr, nd_transport_report, psi_phi,
                                 verify_left_comodule)
from hopfsmash.cli import main as cli_main
from hopfsmash.exactlin import Tensor3, TensorElem
from hopfsmash.hopfcore import (HopfData, StructureAlgebra, drinfeld_double, group_algebra,
                                heisenberg_double, integrals, verify_hopf)
from hopfsmash.modalg import (ModuleAlgebraData, permutation_module_algebra, separability,
                              verify_module_algebra)
from hopfsmash.qtriang import (QTStructure, almost_triangular_equivalences,
                               hr_dual_separability, qt_structure, transmute, trivial_qt,
                               verify_qt)
from hopfsmash.repdim import class_idempotents, fpdim_report, wedderburn_blocks
from hopfsmash.report import HypothesisFailure
from hopfsmash.smashcons import (build_B, double_smash_decomposition, groupoid_case_study,
                                 phi_embed, rb_in_image_iff_muger, smash_algebra, smash_qt,
                                 smash_weak_structure, theta_embed)
from hopfsmash.weakhopf import verify_weak_hopf, verify_weak_qt

DELTAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


@dataclass
class Job:
    name: str
    run: Callable[[], bool]
    largest: bool = False


def _shuffled(items, rng):
    items = sorted(items)
    rng.shuffle(items)
    return items


def _perturb(cells: dict, key, k, delta) -> dict:
    """A copy of {(i, j): {k: c}} with one constant moved by delta."""
    out = {ij: dict(cell) for ij, cell in cells.items()}
    cell = out.setdefault(key, {})
    cell[k] = cell.get(k, 0) + delta
    if not cell[k]:
        del cell[k]
    return out


def mult_twin(mult: dict, unit: dict, dim: int, rng):
    """(perturbed cells, (i, j, k), judge): one multiplication constant moved so
    that the benchmark's own check finds associativity broken."""
    for key in _shuffled(mult, rng):
        k = rng.choice(sorted(mult[key]))
        bad = _perturb(mult, key, k, rng.choice(DELTAS))
        judge = oracle.AlgebraJudge(bad, unit)
        i, j = key
        if any(not judge.associativity(i, j, x) or not judge.associativity(x, i, j)
               for x in range(dim)):
            return bad, (i, j, k), judge
    raise RuntimeError("no multiplication constant breaks associativity")


def rejected(report, judge) -> bool:
    return not report.ok and oracle.confirm(judge, oracle.failed_checks(report))


# ---------------------------------------------------------------------------
# doubles: Drinfeld doubles over a size sweep, H # D(H), Heis(kS3)
# ---------------------------------------------------------------------------

def doubles_setup(seed: int, workdir: str) -> dict:
    rng = inputs.rng_for(seed, "doubles")
    return {"zn": {n: group_algebra(inputs.cyclic(n, rng)) for n in (2, 3, 4, 5, 6, 7, 8)},
            "s3": group_algebra(inputs.s3_with_points(rng)[0]),
            "rng": inputs.rng_for(seed, "doubles-twins")}


def doubles_jobs(inp: dict) -> list:
    built = {}

    def double(key, h, dim):
        def run():
            built[key] = drinfeld_double(h)
            return built[key][0].dim == dim
        return run

    def decomposition(key, h):
        return lambda: double_smash_decomposition(h, built.get(key)).ok

    def heisenberg_blocks():
        return wedderburn_blocks(heisenberg_double(inp["s3"])).blocks == (6,)

    def mult_fault():
        dd = built[4][0]
        mult = oracle.cells_of(dd.mult)
        bad, _, judge = mult_twin(mult, oracle.sparse(dd.unit), dd.dim, inp["rng"])
        twin = HopfData(StructureAlgebra(dd.dim, Tensor3.from_row_dicts(dd.mult.dims, bad),
                                         dd.unit), dd.coalgebra, dd.antipode)
        return rejected(verify_hopf(twin), judge)

    def r_fault():
        dd, q = built["s3"]
        mult, comult = oracle.cells_of(dd.mult), oracle.cells_of(dd.comult)
        r = dict(q.R.items())
        rng = inp["rng"]
        for key in _shuffled(r, rng):
            bad = dict(r)
            bad[key] += rng.choice(DELTAS)
            judge = oracle.QTJudge(mult, comult, bad)
            if any(not judge.intertwines_comult(i) for i in range(dd.dim)):
                break
        else:
            raise RuntimeError("no R entry breaks the intertwining law")
        twin = QTStructure(dd, TensorElem.from_entries(q.R.dims, list(bad.items())), q.Rinv)
        return rejected(verify_qt(twin), judge)

    zn = inp["zn"]
    jobs = [Job(f"D(kZ{n})", double(n, zn[n], n * n), largest=n == 8) for n in range(4, 9)]
    jobs.append(Job("D(kS3)", double("s3", inp["s3"], 36)))
    jobs += [Job("H#D(H) kZ2", decomposition(2, zn[2])),
             Job("H#D(H) kZ3", decomposition(3, zn[3])),
             Job("H#D(H) kS3", decomposition("s3", inp["s3"])),
             Job("Heis(kS3) blocks", heisenberg_blocks),
             Job("twin: D(kZ4) mult", mult_fault),
             Job("twin: D(kS3) R", r_fault)]
    return jobs


# ---------------------------------------------------------------------------
# adjoint: H_R(kS3), Psi/Phi, N_D transport, almost-triangular equivalences
# ---------------------------------------------------------------------------

def adjoint_setup(seed: int, workdir: str) -> dict:
    rng = inputs.rng_for(seed, "adjoint")
    s3, _ = inputs.s3_with_points(rng)
    ks3 = group_algebra(s3)
    kz2 = group_algebra(inputs.cyclic(2, rng))
    return {"ks3": ks3, "involutions": inputs.involutions(s3), "ip": integrals(ks3),
            "dz2": drinfeld_double(kz2), "ds3": drinfeld_double(ks3),
            "rng": inputs.rng_for(seed, "adjoint-twins")}


def adjoint_jobs(inp: dict) -> list:
    ks3, ip = inp["ks3"], inp["ip"]
    st = {}

    def braided_group():
        st["q"] = trivial_qt(ks3)
        st["bg"] = transmute(st["q"])
        return st["bg"].host is st["q"]

    def decompose():
        st["dec"] = dec = decompose_hr(st["bg"])
        st["blocks"] = sorted(dec.blocks, key=len)
        return dec.report.ok and [len(b) for b in st["blocks"]] == [1, 2, 3]

    def idempotents():
        ci = class_idempotents(ks3, st["q"], ip, st["bg"])
        return ci.report.ok and len(ci.idempotents) == 3

    def dual_separability():
        return hr_dual_separability(st["q"], ip, st["bg"])[1].ok

    def psi_phi_block(m):
        def run():
            pp = psi_phi(st["blocks"][m - 1], st["q"], st["bg"])
            return (pp.report.ok and pp.nd.carrier.dim == ks3.dim * m
                    and pp.psi.compose(pp.phi).is_identity()
                    and pp.phi.compose(pp.psi).is_identity())
        return run

    def transport():
        rep = nd_transport_report(st["blocks"][2], st["q"], ip, st["bg"], st["dec"])
        return rep.ok and rep.find("nd_is_almost_triangular").passed

    def equivalences(key, cond2):
        def run():
            rep = almost_triangular_equivalences(inp[key][1])
            return (rep.find("conditions_agree").passed
                    and rep.find("cond2_almost_triangular").passed == cond2)
        return run

    def comodule(coaction: dict):
        n = len(inp["involutions"])
        entries = [(w, d, w2, c) for (w, d), cell in coaction.items() for w2, c in cell.items()]
        return ComoduleData(st["bg"].braided_coalgebra, n,
                            Tensor3.from_entries((n, ks3.dim, n), entries))

    def grouplike():
        return {(a, g): {a: Fraction(1)} for a, g in enumerate(inp["involutions"])}

    def coaction_genuine():
        return verify_left_comodule(comodule(grouplike())).ok

    def coaction_fault():
        rng = inp["rng"]
        good = grouplike()
        key = rng.choice(sorted(good))
        bad = _perturb(good, key, key[0], rng.choice(DELTAS))
        coal = st["bg"].braided_coalgebra
        judge = oracle.ComoduleJudge(bad, oracle.cells_of(coal.comult),
                                     oracle.sparse(coal.counit))
        if all(judge.counit_law(w) and judge.coassociativity(w) for w in range(len(good))):
            raise RuntimeError("coaction twin is not broken")
        return rejected(verify_left_comodule(comodule(bad)), judge)

    return [Job("transmute kS3", braided_group),
            Job("decompose H_R", decompose),
            Job("class idempotents", idempotents),
            Job("H_R* separability", dual_separability),
            Job("psi/phi block 1", psi_phi_block(1)),
            Job("psi/phi block 2", psi_phi_block(2)),
            Job("psi/phi block 3", psi_phi_block(3), largest=True),
            Job("N_D transport", transport, largest=True),
            Job("equivalences D(kZ2)", equivalences("dz2", True)),
            Job("equivalences D(kS3)", equivalences("ds3", False)),
            Job("comodule k.transpositions", coaction_genuine),
            Job("twin: coaction", coaction_fault)]


# ---------------------------------------------------------------------------
# smash: k^3 # kS3 weak Hopf pipeline, B, phi, the case study, the -R guard
# ---------------------------------------------------------------------------

def smash_setup(seed: int, workdir: str) -> dict:
    rng = inputs.rng_for(seed, "smash")
    s3, points3 = inputs.s3_with_points(rng)
    z2, points2 = inputs.z2_with_points(rng)
    ks3, kz2 = group_algebra(s3), group_algebra(z2)
    return {"s3": s3, "points3": points3, "ks3": ks3, "q": trivial_qt(ks3),
            "m3": permutation_module_algebra(ks3, s3, points3),
            "qm": qt_structure(kz2, inputs.minus_r(z2)),
            "m2": permutation_module_algebra(kz2, z2, points2),
            "rng": inputs.rng_for(seed, "smash-twins")}


def smash_jobs(inp: dict) -> list:
    m3, q = inp["m3"], inp["q"]
    st = {}

    def module_algebra():
        return verify_module_algebra(m3).ok

    def smash_product():
        st["sep"] = separability(m3)
        st["s"] = smash_algebra(m3)
        return st["s"].carrier.dim == 18

    def weak_structure():
        st["sws"] = sws = smash_weak_structure(st["s"], q, st["sep"])
        return sws.report.ok and smash_qt(sws)[1].ok

    def fpdims():
        fp = fpdim_report(st["sws"].wha, m3)
        return fp.report.ok and fp.blocks == (3, 3) and fp.fpdims == (1, 1)

    def theta():
        return theta_embed(st["s"])[2].ok

    def enveloping():
        st["b"] = b = build_B(m3, q, st["sep"])
        return b.wha.dim == 54 and verify_weak_hopf(b.wha).ok and verify_weak_qt(b.rqt).ok

    def phi():
        _, image, rep = phi_embed(st["sws"], st["b"])
        return rep.ok and rb_in_image_iff_muger(st["b"], image, q, m3) == (True, True)

    def case_study():
        cs = groupoid_case_study(inp["s3"], inp["points3"], inp["ks3"])
        return cs.report.ok and cs.t == 3 and len(cs.stabilizer) == 2

    def minus_r_guard():
        m2 = inp["m2"]
        try:
            smash_weak_structure(smash_algebra(m2), inp["qm"], separability(m2))
        except HypothesisFailure as exc:
            return "drinfeld-element-acts-trivially" in str(exc)
        return False

    def action_fault():
        h, a = m3.host, m3.A
        action = oracle.cells_of(m3.action)
        rng = inp["rng"]
        key = rng.choice(sorted(action))
        k = rng.choice(sorted(action[key]))
        bad = _perturb(action, key, k, rng.choice(DELTAS))
        judge = oracle.ModuleAlgebraJudge(
            bad, oracle.cells_of(h.mult), oracle.sparse(h.unit), oracle.cells_of(h.comult),
            oracle.sparse(h.counit), oracle.cells_of(a.mult), oracle.sparse(a.unit))
        twin = ModuleAlgebraData(h, a, Tensor3.from_row_dicts(m3.action.dims, bad))
        return rejected(verify_module_algebra(twin), judge)

    return [Job("module algebra k^3", module_algebra),
            Job("smash k^3 # kS3", smash_product),
            Job("weak Hopf + QT", weak_structure),
            Job("fpdim", fpdims),
            Job("theta embedding", theta),
            Job("B = A (x) H (x) A*", enveloping, largest=True),
            Job("phi embedding", phi),
            Job("groupoid case study", case_study),
            Job("k^2 # kZ2 under -R", minus_r_guard),
            Job("twin: action", action_fault)]


# ---------------------------------------------------------------------------
# workspace: construct and verify through the CLI, JSON on disk
# ---------------------------------------------------------------------------

def workspace_setup(seed: int, workdir: str) -> dict:
    rng = inputs.rng_for(seed, "workspace")
    s3, points3 = inputs.s3_with_points(rng)
    os.makedirs(workdir)
    path = os.path.join(workdir, "ws.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs.workspace_doc(s3, points3), fh)
    return {"dir": workdir, "ws": path, "rng": inputs.rng_for(seed, "workspace-twins")}


def cli(*argv) -> int:
    """Run the CLI in-process, keeping its report text off our stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main([str(a) for a in argv])


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def workspace_jobs(inp: dict) -> list:
    ws = inp["ws"]

    def out(name):
        return os.path.join(inp["dir"], name)

    def construct(recipe):
        return lambda: cli("construct", ws, recipe, out(recipe.replace(":", "_") + ".json")) == 0

    def verify(path, target, suite):
        return lambda: cli("verify", out(path), target, suite) == 0

    def verify_double_qt():
        doc = _load(out("double_s3.json"))
        doc["objects"]["r_double_s3"] = {"type": "qt", "host": "double_s3", "R": doc["R"]}
        _dump(doc, out("double_s3_qt.json"))
        return cli("verify", out("double_s3_qt.json"), "r_double_s3", "qt") == 0

    def file_fault():
        name = "smash-wha_k3s3"
        doc = _load(out(name + ".json"))
        obj = doc["objects"][name]
        mult = oracle.cells_of_json(obj["mult"])
        bad, (i, j, k), judge = mult_twin(mult, oracle.sparse(obj["unit"]), obj["dim"],
                                          inp["rng"])
        obj["mult"][i][j][k] = str(bad.get((i, j), {}).get(k, 0))
        _dump(doc, out("twin.json"))
        rc = cli("--json", out("twin-report.json"), "verify", out("twin.json"), name, "weak-hopf")
        report = _load(out("twin-report.json"))["report"]
        return rc == 1 and oracle.confirm(judge, oracle.failed_checks_json(report))

    return [Job("construct double:s3", construct("double:s3")),
            Job("construct heisenberg:s3", construct("heisenberg:s3")),
            Job("construct smash-wha:k3s3", construct("smash-wha:k3s3")),
            Job("construct build-B:k3s3", construct("build-B:k3s3"), largest=True),
            Job("verify double hopf", verify("double_s3.json", "double_s3", "hopf")),
            Job("verify double qt", verify_double_qt),
            Job("verify smash-wha weak-hopf",
                verify("smash-wha_k3s3.json", "smash-wha_k3s3", "weak-hopf")),
            Job("verify B weak-hopf", verify("build-B_k3s3.json", "build-B_k3s3", "weak-hopf"),
                largest=True),
            Job("verify smash-pipeline", lambda: cli("verify", ws, "k3s3", "smash-pipeline") == 0),
            Job("twin: written file", file_fault)]


WORKLOADS = {
    "doubles": (doubles_setup, doubles_jobs),
    "adjoint": (adjoint_setup, adjoint_jobs),
    "smash": (smash_setup, smash_jobs),
    "workspace": (workspace_setup, workspace_jobs),
}
