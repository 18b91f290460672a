"""Reports: one check per statement, with its first failing point."""

from mipoly.report import Report


def test_every_adds_one_check_per_statement():
    rep = Report("demo", "a statement over points")
    seen = []
    rep.every("all small", range(5), lambda x: seen.append(x) or x < 10)
    rep.every("below 3", range(5), lambda x: x < 3)
    rep.every("odd", [4, 1, 2], lambda x: x % 2, witness=lambda x: f"point {x}")
    rep.every("nothing to check", [], lambda x: False)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("all small", True, ""),
        ("below 3", False, "x=3"),
        ("odd", False, "point 4"),
        ("nothing to check", True, ""),
    ]
    assert seen == [0, 1, 2, 3, 4]
    assert rep.to_dict()["checked"] == 4


def test_every_stops_at_the_first_failing_point():
    rep, seen = Report("demo", "a statement over points"), []
    rep.every("below 2", range(10), lambda x: seen.append(x) or x < 2)
    assert seen == [0, 1, 2] and rep.failures()[0].witness == "x=2"
