"""Each object is verified once: constructors require its cached `report`, and
compound verifiers and later constructors read that report instead of
running the verifier again."""

from hopfsmash import hopfcore, modalg
from hopfsmash.hopfcore import verify_hopf
from hopfsmash.qtriang import transmute
from hopfsmash.smashcons import build_B, smash_algebra
from hopfsmash.weakhopf import verify_weak_hopf


def test_transmute_reads_the_host_report(double_z2, count_calls):
    dd, q = double_z2
    calls = count_calls(hopfcore, "verify_algebra")
    bg = transmute(q)
    assert calls == []
    assert bg.report.ok and bg.report is bg.report


def test_build_b_verifies_its_carrier_once(m3, q_s3, sep3, count_calls):
    calls = count_calls(hopfcore, "verify_algebra")
    b = build_B(m3, q_s3, sep3)
    assert [a for a in calls if a.dim == 54] == [b.wha.algebra]
    assert b.report.find("wha.wba.algebra.associativity").passed


def test_smash_algebra_reads_the_module_algebra_report(m3, count_calls):
    calls = count_calls(modalg, "verify_module_algebra")
    s = smash_algebra(m3)
    assert calls == []
    assert s.A_mod.report.ok


def test_weak_hopf_report_holds_the_weak_axioms(sws18):
    w = sws18.wha
    names = [c.name for c in w.report.checks]
    assert names == [c.name for c in verify_weak_hopf(w).checks]
    assert "wba.weak_counit_identity_1" in names and "antipode_left" not in names
    assert w.report.subject == "weak_hopf"


def test_hopf_report_is_computed_once(ks3, count_calls):
    calls = count_calls(hopfcore, "verify_hopf")
    assert ks3.report is ks3.report
    assert calls == []
    assert ks3.report.to_dict() == verify_hopf(ks3).to_dict()
