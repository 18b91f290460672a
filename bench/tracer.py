"""Per-layer tracing of mipoly from outside the program.

`install()` replaces public functions and methods of the mipoly modules with
wrappers, patching every module's binding of a function (for example
`mipoly.multi.polynomial_gcd` as well as `mipoly.ratfunc.polynomial_gcd`).
A spanned call records (name, start, end, parent) in memory; a counted call
only bumps a counter, for calls too frequent to span.  `Tracer.metrics()`
turns the spans and counters into the per-layer metrics of BENCHMARK.json:

- `<module>.self_s`: time in the module's spans minus time in their child
  spans, summed over the module;
- `<module>.<function>.s`: time in the outermost spans of that function;
- counters such as `casoratian.exact_det.calls` or `casoratian.lattice.hits`.

Run as a script it traces one CLI job in this process:

    python3 bench/tracer.py --spans FILE -- verify --family M ...

It writes the spans to FILE as gzipped JSON lines, and prints one JSON
object with the exit code, the CLI's standard output and the job's metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter

# (module, owner, attribute): owner is None for a module-level function, or
# the name of the class whose method is spanned.
SPANNED = (
    ("cli", None, "main"),
    ("multi", None, "system"),
    ("multi", "MultiIndexedSystem", "__init__"),
    ("multi", "MultiIndexedSystem", "Xi"),
    ("multi", "MultiIndexedSystem", "multi_poly"),
    ("multi", "MultiIndexedSystem", "weight"),
    ("multi", "MultiIndexedSystem", "leading_coefficients"),
    ("multi", "MultiIndexedSystem", "eigen_residual"),
    ("multi", "MultiIndexedSystem", "B_D"),
    ("multi", "MultiIndexedSystem", "D_D"),
    ("multi", "MultiIndexedSystem", "forward_apply"),
    ("multi", "MultiIndexedSystem", "backward_apply"),
    ("multi", None, "orthogonality_sum"),
    ("multi", None, "verify_multi_structure"),
    ("multi", None, "verify_eigen_equation"),
    ("multi", None, "verify_shape_invariance"),
    ("multi", None, "verify_special_identities"),
    ("casoratian", None, "exact_det"),
    ("casoratian", None, "casoratian"),
    ("casoratian", None, "verify_identities"),
    ("polynomials", None, "interpolate"),
    ("polynomials", "Polynomial", "compose"),
    ("ratfunc", None, "polynomial_gcd"),
    ("ratfunc", "RationalFunction", "__init__"),
    ("series", None, "pochhammer"),
    ("series", None, "q_pochhammer"),
    ("series", None, "rational_power"),
    ("families", "_BaseFamily", "phi0_sq"),
    ("families", "_BaseFamily", "poly"),
    ("families", "Meixner", "poly_value"),
    ("families", "_QFamily", "poly_value"),
    ("families", "Meixner", "dn_sq"),
    ("families", "LittleQJacobi", "dn_sq"),
    ("families", "LittleQLaguerre", "dn_sq"),
    ("families", None, "rodrigues_vector"),
    ("families", None, "verify_difference_equation"),
    ("families", None, "verify_shift_relations"),
    ("virtual", None, "xi_poly"),
    ("virtual", None, "xi_value"),
    ("virtual", None, "xi_series_terms"),
    ("virtual", None, "positivity_certificate"),
    ("virtual", None, "verify_linear_relation"),
    ("chain", None, "chain_build"),
    ("chain", None, "chain_verify"),
    ("limits", None, "verify_meixner_limits"),
    ("limits", None, "meixner_limit_exact"),
    ("limits", None, "verify_q_limits"),
    ("limits", None, "q_limit_numeric"),
    ("limits", None, "q_limit_errors"),
    ("limits", None, "q_limit_extrapolated_error"),
)

# Hot calls that are only counted: (module, class, attribute, counter).
COUNTED = (
    ("families", "Meixner", "B", "families.potential.calls"),
    ("families", "Meixner", "D", "families.potential.calls"),
    ("families", "_QFamily", "B", "families.potential.calls"),
    ("families", "_QFamily", "D", "families.potential.calls"),
    ("report", "Report", "add", "report.checks"),
)

MODULES = (
    "cli",
    "report",
    "multi",
    "casoratian",
    "polynomials",
    "ratfunc",
    "series",
    "families",
    "virtual",
    "chain",
    "limits",
)

# Per-layer metrics: module self times, outermost-span times, counters.
SELF_S = (
    "families",
    "ratfunc",
    "casoratian",
    "polynomials",
    "multi",
    "limits",
    "chain",
    "virtual",
    "series",
    "cli",
)
OUTER_S = {
    "multi.orthogonality_sum.s": "multi.orthogonality_sum",
    "ratfunc.polynomial_gcd.s": "ratfunc.polynomial_gcd",
    "casoratian.exact_det.s": "casoratian.exact_det",
    "casoratian.verify_identities.s": "casoratian.verify_identities",
    "polynomials.interpolate.s": "polynomials.interpolate",
    "polynomials.compose.s": "polynomials.compose",
    "multi.Xi.s": "multi.Xi",
    "multi.multi_poly.s": "multi.multi_poly",
    "multi.verify_multi_structure.s": "multi.verify_multi_structure",
    "multi.verify_eigen_equation.s": "multi.verify_eigen_equation",
    "multi.verify_shape_invariance.s": "multi.verify_shape_invariance",
    "multi.verify_special_identities.s": "multi.verify_special_identities",
    "limits.verify_meixner_limits.s": "limits.verify_meixner_limits",
    "limits.verify_q_limits.s": "limits.verify_q_limits",
    "limits.q_limit_numeric.s": "limits.q_limit_numeric",
    "chain.chain_verify.s": "chain.chain_verify",
    "virtual.positivity_certificate.s": "virtual.positivity_certificate",
    "virtual.verify_linear_relation.s": "virtual.verify_linear_relation",
}
COUNTS = {
    "families.phi0_sq.calls": "families.phi0_sq.calls",
    "families.potential.calls": "families.potential.calls",
    "multi.orthogonality.terms": "multi.orthogonality.terms",
    "multi.orthogonality.x_star": "multi.orthogonality.x_star",
    "multi.weight.calls": "multi.weight.calls",
    "ratfunc.polynomial_gcd.calls": "ratfunc.polynomial_gcd.calls",
    "ratfunc.rational_function.builds": "ratfunc.RationalFunction.calls",
    "casoratian.exact_det.calls": "casoratian.exact_det.calls",
    "casoratian.exact_det.big_calls": "casoratian.exact_det.big_calls",
    "casoratian.lattice.hits": "casoratian.lattice.hits",
    "casoratian.lattice.misses": "casoratian.lattice.misses",
    "polynomials.interpolate.calls": "polynomials.interpolate.calls",
    "polynomials.interpolate.points": "polynomials.interpolate.points",
    "multi.system.calls": "multi.system.calls",
    "multi.system.builds": "multi.MultiIndexedSystem.calls",
    "series.q_pochhammer.calls": "series.q_pochhammer.calls",
    "report.checks": "report.checks",
}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the tracer produces."""
    out = [(f"{m}.self_s", "s") for m in SELF_S]
    out += [(name, "s") for name in OUTER_S]
    out += [(name, "count") for name in COUNTS]
    return out


class Tracer:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []  # indices of open spans
        self.child_time: list[float] = []  # time covered by children, per open span
        self.depth: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.outer_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def spanned(self, module: str, name: str, fn, after=None):
        tracer = self
        full = f"{module}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            tracer.child_time.append(0.0)
            depth = tracer.depth.get(full, 0)
            tracer.depth[full] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                covered = tracer.child_time.pop()
                duration = end - start
                tracer.self_s[module] = tracer.self_s.get(module, 0.0) + duration - covered
                if tracer.child_time:
                    tracer.child_time[-1] += duration
                tracer.depth[full] = depth
                if depth == 0:
                    tracer.outer_s[full] = tracer.outer_s.get(full, 0.0) + duration
                tracer.spans[index] = (full, start, end, parent)
                tracer.bump(full + ".calls")
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.bump(key)
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict[str, float]:
        out = {f"{m}.self_s": self.self_s.get(m, 0.0) for m in SELF_S}
        out.update({name: self.outer_s.get(span, 0.0) for name, span in OUTER_S.items()})
        out.update({name: self.counts.get(key, 0) for name, key in COUNTS.items()})
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines, one per span: [name, start_s, end_s, parent_index]."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent]) + "\n")


def _after_exact_det(tracer: Tracer, args, result) -> None:
    if len(args[0]) >= 5:
        tracer.bump("casoratian.exact_det.big_calls")


def _after_interpolate(tracer: Tracer, args, result) -> None:
    tracer.bump("polynomials.interpolate.points", len(args[0]))


def _after_orthogonality(tracer: Tracer, args, result) -> None:
    tracer.bump("multi.orthogonality.terms", result.terms)
    tracer.bump("multi.orthogonality.x_star", result.ratio_start)


AFTER = {
    "exact_det": _after_exact_det,
    "interpolate": _after_interpolate,
    "orthogonality_sum": _after_orthogonality,
}


def _rebind(original, replacement) -> None:
    """Point every mipoly module's binding of `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "mipoly" or name.startswith("mipoly."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the mipoly layers; call before the code under test looks names up."""
    tracer = Tracer()
    mods = {m: importlib.import_module(f"mipoly.{m}") for m in MODULES}
    for module, owner, attr in SPANNED:
        if owner is None:
            original = getattr(mods[module], attr)
            _rebind(original, tracer.spanned(module, attr, original, AFTER.get(attr)))
        else:
            cls = getattr(mods[module], owner)
            name = owner if attr == "__init__" else attr
            setattr(cls, attr, tracer.spanned(module, name, cls.__dict__[attr], AFTER.get(attr)))
    for module, owner, attr, key in COUNTED:
        cls = getattr(mods[module], owner)
        setattr(cls, attr, tracer.counted(key, cls.__dict__[attr]))

    lattice = mods["casoratian"].LatticeFunction
    lattice_call = lattice.__dict__["__call__"]

    def counted_lattice_call(self, x):
        tracer.bump("casoratian.lattice.hits" if x in self.cache else "casoratian.lattice.misses")
        return lattice_call(self, x)

    lattice.__call__ = counted_lattice_call
    return tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --spans FILE -- <mipoly arguments>\n")
        return 2
    spans_path, cli_argv = argv[1], argv[3:]
    tracer = install()
    cli = importlib.import_module("mipoly.cli")
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = cli.main(cli_argv)
    wall = perf_counter() - start
    tracer.write_spans(spans_path)
    print(json.dumps({"code": code, "wall_s": wall, "output": buf.getvalue(), "metrics": tracer.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
