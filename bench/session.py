"""The library-session workload: one long-lived process using the public API.

The process imports mipoly once and then serves the seeded request list of
workloads.jobs("library-session", seed) block by block, so that the parent
can take a reference sample between blocks while this process waits.  Each
request builds a fresh but equal family object and asks for

    system(family, D).Xi(), .multi_poly(n) for n <= 3, .weight(x) for x <= 12,
    .dt_sq(n), family.energy(n), orthogonality_sum(family, D, 1, 1) and
    chain_verify(family, D, n_max=2, x_max=8).

Repeated configurations can reuse what earlier requests cached
(`multi._SYSTEMS`, `LatticeFunction` grids, the family `_cache`), which the
cold CLI workloads never do.

Protocol on stdin/stdout, one line each:
    block K  ->  {"timings": [seconds per request], "results": [...]}
    quit     ->  {"peak_rss_kb": N, "metrics": {...} when tracing}

The peak resident set is read from this process's own VmHWM: `ru_maxrss`
seen by the parent would start at the parent's peak (see launcher.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from time import perf_counter

import workloads

PARAMETER_NAMES = {"M": "Meixner", "lqJ": "LittleQJacobi", "lqL": "LittleQLaguerre"}


def serve(api, requests: list) -> None:
    n_max, x_max = workloads.SESSION_NMAX, workloads.SESSION_XMAX
    block = workloads.SESSION_BLOCK

    def request(job):
        family = getattr(api, PARAMETER_NAMES[job.family])(*(Fraction(v) for v in job.params.split(",")))
        s = api.system(family, job.labels)
        xi = s.Xi()
        polys = [s.multi_poly(n) for n in range(n_max + 1)]
        dt_sq = [s.dt_sq(n) for n in range(n_max + 1)]
        energies = [family.energy(n) for n in range(n_max + 1)]
        weights = [s.weight(x) for x in range(x_max + 1)]
        orth = api.orthogonality_sum(family, job.labels, 1, 1)
        chain = api.chain_verify(family, job.labels, **workloads.SESSION_CHAIN)
        return xi, polys, dt_sq, energies, weights, orth.passed, chain.passed

    def document(xi, polys, dt_sq, energies, weights, orth_passed, chain_passed):
        return {
            "denominator": {"coefficients": [str(c) for c in xi.coeffs]},
            "levels": [
                {"n": n, "coefficients": [str(c) for c in p.coeffs], "energy": str(e), "dt_sq": str(d)}
                for n, (p, e, d) in enumerate(zip(polys, energies, dt_sq))
            ],
            "weights": [{"x": x, "value": str(w)} for x, w in enumerate(weights)],
            "orthogonality_passed": orth_passed,
            "chain_passed": chain_passed,
        }

    for line in sys.stdin:
        words = line.split()
        if not words or words[0] == "quit":
            return
        k = int(words[1])
        timings, results = [], []
        for job in requests[k * block : (k + 1) * block]:
            start = perf_counter()
            try:
                out = request(job)
            except Exception as exc:  # a failed request is counted, not fatal
                timings.append(perf_counter() - start)
                results.append({"error": repr(exc)})
                continue
            timings.append(perf_counter() - start)
            results.append(document(*out))
        print(json.dumps({"timings": timings, "results": results}), flush=True)


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace the session and write its spans here")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.install()
    import mipoly

    serve(mipoly, workloads.jobs("library-session", args.seed))
    final = {"peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        tracer.write_spans(args.spans)
        final["metrics"] = tracer.metrics()
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
