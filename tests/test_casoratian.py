"""Exact determinants and Casoratians of lattice functions."""

import importlib
import random
import sys
from fractions import Fraction as F

from conftest import fold
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.casoratian import LatticeFunction, casoratian, exact_det, verify_identities
from mipoly.polynomials import Polynomial
from mipoly.ratfunc import RationalFunction
from mipoly.series import pair

# Half the entries are zero, so pivots vanish (row swaps) and whole matrices go singular;
# ints and Fractions mix within one matrix.
entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


# All-int matrices with big entries: the integer core's closed forms (n <= 3)
# and its elimination see zero pivots, singular matrices and ints past 2**64.
big_ints = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=2**64, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=-(2**64)),
)


@given(st.integers(min_value=0, max_value=7), st.sampled_from([entries, big_ints]), st.data())
@settings(max_examples=120, deadline=None)
def test_det_matches_cofactor_expansion(n, kind, data):
    rows = [[data.draw(kind) for _ in range(n)] for _ in range(n)]
    det = exact_det(rows)
    assert det == _cofactor_det(rows)
    if n >= 2:
        all_int = all(type(e) is int for row in rows for e in row)
        assert type(det) is (int if all_int else F)


def test_det_of_integer_matrix_is_an_exact_int():
    # both used to come back as floats from the size >= 5 elimination
    perturbed = [[(i + 1) ** j + (i == j) for j in range(5)] for i in range(5)]
    vandermonde = [[(i + 1) ** j for j in range(6)] for i in range(6)]
    for rows, want in ((perturbed, 55000), (vandermonde, 34560)):
        det = exact_det(rows)
        assert type(det) is int and det == want
    assert type(exact_det([[1, 2], [3, 4]])) is int


def test_det_of_fraction_matrix_is_a_fraction():
    rows = [[F((i + 1) ** j + (i == j), j + 1) for j in range(5)] for i in range(5)]
    det = exact_det(rows)
    assert type(det) is F and det == _cofactor_det(rows)
    assert type(exact_det([[F(1), F(2)], [F(3), F(4)]])) is F
    assert exact_det([[F(1, 2), 1], [3, F(2, 3)]]) == F(1, 3) - 3


def test_det_with_rational_function_entries():
    # symbolic c, as in the c -> 1 Meixner limits: the field path
    c = RationalFunction.variable()
    for n in (3, 5):
        rows = [[(c + i) ** j + F(i * j, 2) * c for j in range(n)] for i in range(n)]
        det = exact_det(rows)
        assert isinstance(det, RationalFunction)
        assert det == _cofactor_det(rows)


def test_det_of_singular_rational_function_matrix_is_zero():
    # above size 4 the field path is Bareiss elimination; row 4 is the sum
    # of rows 0 and 2, then a zero column stops the elimination at once
    c = RationalFunction.variable()
    rows = [[(c + i) ** j + F(i * j, 2) * c for j in range(5)] for i in range(4)]
    rows.append([a + b for a, b in zip(rows[0], rows[2])])
    assert exact_det(rows) == 0
    det = exact_det([[0 * c] + row[1:] for row in rows[:4]] + [[0 * c] * 5])
    assert isinstance(det, RationalFunction) and det == 0


def test_det_basics():
    assert exact_det([]) == 1
    assert exact_det([[F(5)]]) == 5
    assert exact_det([[1, 2], [3, 4]]) == -2
    # singular matrix with an awkward pivot pattern
    assert exact_det([[0, 1, 2], [0, 2, 4], [1, 0, 0]]) == 0


def test_lattice_function_memoizes():
    calls = []
    f = LatticeFunction(lambda x: calls.append(x) or x * x)
    assert f(3) == 9 and f(3) == 9
    assert calls == [3]


def test_lattice_function_pair_view():
    # the pair view is series.pair of the value, kept per x: fn runs once per
    # x across value and pair reads, whichever comes first
    calls = []
    f = LatticeFunction(lambda x: calls.append(x) or F(x, 3))
    assert f.pair(3) == pair(f(3)) == (1, 1) and f.pair(3) is f.pair(3)
    assert f(6) == 2 and f.pair(6) == (2, 1) and f.pair(-2) == (-2, 3) and f(-2) == F(-2, 3)
    assert calls == [3, 6, -2]
    # a value written to the cache before the first pair read is the one
    # the pair view returns (the chain's corruption tests rely on it)
    f.cache[4] = F(5, 7)
    assert f.pair(4) == (5, 7) and calls == [3, 6, -2]
    assert LatticeFunction(lambda x: x).pair(2) == (2, 1)


def test_lattice_function_hit_is_one_lookup():
    class CountingDict(dict):
        lookups = 0

        def __getitem__(self, key):
            CountingDict.lookups += 1
            return super().__getitem__(key)

        def __contains__(self, key):
            CountingDict.lookups += 1
            return super().__contains__(key)

    f = LatticeFunction(lambda x: x + 1)
    f.cache = CountingDict()
    assert f(4) == 5
    CountingDict.lookups = 0
    assert f(4) == 5 and f(4) == 5
    assert CountingDict.lookups == 2


def test_casoratian_low_order_formulas():
    f = LatticeFunction(lambda x: F(x))
    g = LatticeFunction(lambda x: F(x * x))
    assert casoratian([], 7) == 1
    assert casoratian([f], 5) == 5
    # W[f,g](x) = f(x) g(x+1) - f(x+1) g(x)
    for x in range(5):
        assert casoratian([f, g], x) == F(x) * (x + 1) ** 2 - F(x + 1) * x**2


def test_casoratian_antisymmetry_and_degeneracy():
    rng = random.Random(7)
    fs = [
        LatticeFunction(lambda x, c=c: F(c[0]) + c[1] * x + c[2] * x * x * x)
        for c in [(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
    ]
    for x in range(4):
        w = casoratian(fs, x)
        swapped = casoratian([fs[1], fs[0], fs[2]], x)
        assert swapped == -w
        assert casoratian([fs[0], fs[0], fs[2]], x) == 0


def test_casoratian_linearity_in_one_slot():
    f = LatticeFunction(lambda x: F(1 + x))
    g = LatticeFunction(lambda x: F(x * x))
    h = LatticeFunction(lambda x: F(2 - x + x**3))
    combo = LatticeFunction(lambda x: 3 * g(x) - F(1, 2) * h(x))
    for x in range(5):
        assert casoratian([f, combo], x) == 3 * casoratian([f, g], x) - F(1, 2) * casoratian(
            [f, h], x
        )


def _random_poly_grid(rng, degree):
    coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return LatticeFunction(Polynomial(coeffs))


def _reference_identities():
    """The identity suite read through closures: LatticeFunction grids of
    Polynomials and `casoratian(fs, x)` at every point, with the same draws
    and checks as `verify_identities`, written out one row per trial and
    folded to the suite's (name, passed, witness) rows."""
    rng = random.Random(20240901)
    rows = []
    for trial in range(100):
        n = rng.randint(1, 4)
        fs = [_random_poly_grid(rng, rng.randint(0, 3)) for _ in range(n)]
        g = _random_poly_grid(rng, rng.randint(0, 2))
        h = _random_poly_grid(rng, rng.randint(0, 2))
        x = rng.randint(-3, 5)
        w = LatticeFunction(lambda y: casoratian(fs, y))
        where = f"trial {trial}, n={n}, x={x}"

        scaled = [lambda y, f=f: g(y) * f(y) for f in fs]
        gauge = 1
        for k in range(n):
            gauge *= g(x + k)
        rows.append(("gauge", casoratian(scaled, x) == gauge * w(x), where))

        wg = lambda y: casoratian(fs + [g], y)
        wh = lambda y: casoratian(fs + [h], y)
        lhs = casoratian([wg, wh], x)
        rhs = w(x + 1) * casoratian(fs + [g, h], x)
        rows.append(("nesting", lhs == rhs, where))

        minors = [
            (lambda y, k=k: casoratian([f for j, f in enumerate(fs) if j != k], y))
            for k in range(n)
        ]
        lhs4 = casoratian(minors, x)
        rhs4 = 1 if n % 4 in (0, 1) else -1
        for k in range(n - 1):
            rhs4 *= w(x + k)
        rows.append(("minors", lhs4 == rhs4, where))
    return fold(rows)


def _outcomes(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def test_identity_suite_defaults():
    rep = verify_identities()
    assert rep.passed and [c.name for c in rep.checks] == ["gauge", "nesting", "minors"]


def test_identity_suite_catches_a_wrong_determinant(monkeypatch):
    # patch exact_det where the identity suite looks it up: in the module
    module = importlib.import_module("mipoly.casoratian")

    def off_by_one(rows):
        return exact_det(rows) + 1 if len(rows) >= 2 else exact_det(rows)

    monkeypatch.setattr(module, "exact_det", off_by_one)
    rep = verify_identities()
    assert not rep.passed
    assert len(rep.checks) == 3
    # the closure reference fails alike, at the same first trials, and
    # every kind of identity fails
    reference = _reference_identities()
    assert _outcomes(rep) == reference
    assert {c.name for c in rep.failures()} == {"gauge", "nesting", "minors"}


def test_identity_suite_matches_the_closure_reference():
    assert _outcomes(verify_identities()) == _reference_identities()


def test_package_attribute_is_the_module():
    import mipoly
    import mipoly.casoratian

    assert mipoly.casoratian is sys.modules["mipoly.casoratian"]
    assert mipoly.casoratian.exact_det is exact_det
    assert mipoly.casoratian.casoratian([], 0) == 1
    assert "casoratian" not in mipoly.__all__
