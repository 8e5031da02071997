from hopfsmash.report import VerificationReport


def test_check_records_first_failure_and_stops():
    rep = VerificationReport("r")
    assert rep.check("passes", (i for i in range(3) if i > 5))
    assert rep.find("passes").passed and rep.find("passes").witness is None
    assert rep.check("vacuous", ())

    def failures():
        yield (1, 2)
        raise AssertionError("consumed past the first failure")

    assert not rep.check("fails", failures())
    assert rep.find("fails").witness == (1, 2)
    assert not rep.ok

    assert not rep.check("info", [(0,), (1,)], informational=True)
    assert rep.find("info").witness == (0,) and rep.find("info").informational
    assert [c.name for c in rep.failures()] == ["fails"]
