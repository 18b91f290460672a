"""Helpers shared by the test modules (import them with `from conftest import ...`)."""


def fold(rows):
    """Fold per-point (name, passed, witness) rows, such as an oracle writes
    out point by point, into one row per name in the place of its first row,
    as `Report.every` reports a statement: passed at every point, its witness
    that of the first failing point."""
    out = {}
    for name, passed, witness in rows:
        if out.get(name, (True,))[0]:  # no earlier point failed
            out[name] = passed, "" if passed else witness
    return [(name, *check) for name, check in out.items()]
