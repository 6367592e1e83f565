"""Layer spans for the traced run, installed from outside the program.

Each wrapper replaces a function under the name its caller looks it up
(``smallpoints.curve.cross_ratio`` is the name ``analyze_curve`` calls), so
the program itself is unchanged.  A span's self time is its duration
minus the durations of the spans it encloses; every span adds its self
time to one per-layer bucket, and the operation itself is the root span,
whose self time is ``cli.self_s``.  The buckets therefore add up to the
summed operation time.  Spans are aggregated in memory, not kept one by
one, because ``poly_eval_box`` alone runs millions of times.
"""

from __future__ import annotations

import importlib
import re
import time

# (module, name looked up there, self-time bucket, counter prefix or None)
WRAPPED = [
    ("smallpoints.cli", "analyze_curve", "curve.self_s", None),
    ("smallpoints.cli", "full_report", "bounds.report_s", "bounds.report"),
    ("smallpoints.curve", "bad_prime_superset", "curve.self_s", None),
    ("smallpoints.curve", "branch_point_list", "curve.self_s", None),
    ("smallpoints.curve", "discriminant", "polynomial.resultant_s", None),
    ("smallpoints.curve", "factor", "numeric.factor_s", "numeric.factor"),
    ("smallpoints.polynomial", "int_factor", "numeric.factor_s", "numeric.factor"),
    ("smallpoints.curve", "factor_over_z", "polynomial.factor_s", "polynomial.factor"),
    ("smallpoints.algebraic", "factor_over_z", "polynomial.factor_s", "polynomial.factor"),
    ("smallpoints.polynomial", "resultant", "polynomial.resultant_s", "polynomial.resultant"),
    ("smallpoints.curve", "algebraic_roots", "algebraic.self_s", None),
    ("smallpoints.curve", "is_s_unit", "algebraic.self_s", None),
    ("smallpoints.curve", "cross_ratio", "algebraic.cross_ratio_s", "algebraic.cross_ratio"),
    ("smallpoints.curve", "anharmonic_orbit", "algebraic.orbit_s", None),
    ("smallpoints.curve", "weil_height", "algebraic.height_s", "algebraic.height"),
    ("smallpoints.algebraic", "isolate_roots", "roots.isolate_s", "roots.isolate"),
    ("smallpoints.algebraic", "refine_root_box", "roots.refine_s", "roots.refine"),
    ("smallpoints.algebraic", "poly_eval_box", "intervals.box_eval_s", "intervals.box_eval"),
    ("smallpoints.roots", "poly_eval_box", "intervals.box_eval_s", "intervals.box_eval"),
    ("smallpoints.bounds", "pipeline_apriori", "bounds.apriori_s", None),
    ("smallpoints.bounds", "pipeline_empirical", "bounds.empirical_s", None),
]

ROOT_BUCKET = "cli.self_s"

# how big the first argument of a call is, for the *_max_* counters
SIZE_OF = {
    "roots.isolate": ("roots.isolate_max_degree", lambda f: f.degree()),
    "polynomial.factor": ("polynomial.factor_max_degree", lambda f: f.degree()),
    "numeric.factor": ("numeric.factor_max_bits", lambda n: n.bit_length()),
}

# call counters reported as per-layer metrics, keyed by counter prefix
CALLS = {
    "roots.isolate": "roots.isolate_calls",
    "roots.refine": "roots.refine_calls",
    "intervals.box_eval": "intervals.box_evals",
    "polynomial.resultant": "polynomial.resultant_calls",
    "polynomial.factor": "polynomial.factor_calls",
    "algebraic.cross_ratio": "algebraic.cross_ratio_calls",
    "algebraic.height": "algebraic.height_calls",
    "numeric.factor": "numeric.factor_calls",
    "bounds.report": "bounds.report_calls",
}

_SKIPPED = re.compile(r"^(\d+) candidate triples skipped by the degree cap$")


class Tracer:
    """Per-layer self times and counters over the traced operations."""

    def __init__(self):
        self._stack: list[float] = []
        self._saved: list[tuple] = []
        buckets = {b for _, _, b, _ in WRAPPED} | {ROOT_BUCKET}
        self.totals = {b: 0.0 for b in sorted(buckets)}
        self.counts = {name: 0 for name in CALLS.values()}
        self.counts.update({name: 0 for name, _ in SIZE_OF.values()})
        self.counts["curve.triples_skipped"] = 0

    def _wrap(self, fn, bucket: str, counter: str | None):
        stack, totals, counts = self._stack, self.totals, self.counts
        calls = CALLS.get(counter)
        size = SIZE_OF.get(counter)
        perf = time.perf_counter

        def span(*args, **kwargs):
            if calls is not None:
                counts[calls] += 1
            if size is not None:
                counts[size[0]] = max(counts[size[0]], size[1](args[0]))
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                totals[bucket] += dt - stack.pop()
                stack[-1] += dt

        return span

    def install(self) -> None:
        for module, name, bucket, counter in WRAPPED:
            mod = importlib.import_module(module)
            orig = getattr(mod, name)
            self._saved.append((mod, name, orig))
            setattr(mod, name, self._wrap(orig, bucket, counter))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    def run(self, fn, *args):
        """Call fn(*args) as a root span; returns (result, seconds)."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.totals[ROOT_BUCKET] += dt - self._stack.pop()
        return result, dt

    def count_report(self, doc: dict) -> None:
        """Counters that only the report shows."""
        curve = doc.get("curve")
        if curve:
            for c in curve["caveats"]:
                m = _SKIPPED.match(c)
                if m:
                    self.counts["curve.triples_skipped"] += int(m.group(1))

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {name: (value, "s") for name, value in self.totals.items()}
        out.update({name: (value, "count") for name, value in self.counts.items()})
        return dict(sorted(out.items()))
