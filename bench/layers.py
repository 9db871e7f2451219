"""Which grimm functions the traced run wraps, and the per-layer metrics
derived from what it records.

Every wrapped function yields `<module>.<function>.calls` and `.self_s`
for the solve (the CLI call).  Because every span's self time is listed,
the self times plus `trace.unattributed_s` add up to `trace.solve_s`.
A function that no longer exists, or is not called, reads 0; the names of
missing ones are printed by the run as "absent".
"""

from __future__ import annotations

from tracing import Snapshot, Target


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _matching_size(counters, args, result):
    inst = args[0]
    _add(counters, "matching.left_vertices", len(inst.left))
    _add(counters, "matching.edges", sum(len(adj) for adj in inst.edges.values()))


def _t(module, attr, observe=None):
    return Target(f"grimm.{module}", attr, f"{module}.{attr.split('.')[0]}", observe)


DECISION = "assign.exact_representation_exists"

TARGETS = (
    _t("arith", "PrimeSieve.__init__"),
    _t("arith", "factorize"),
    _t("arith", "is_prime"),
    _t("arith", "probable_prime",
       lambda c, args, result: _add(c, "arith.probable_prime.hits", bool(result))),
    _t("coprime", "window_prime_exponents"),
    _t("coprime", "construct_representation"),
    _t("coprime", "verify_representation"),
    _t("matching", "MatchingInstance.__init__"),
    _t("matching", "max_matching", _matching_size),
    _t("matching", "augment"),
    _t("assign", "grimm_instance"),
    _t("assign", "grimm_assignment"),
    _t("assign", "representation_instance"),
    _t("assign", "exact_representation_exists",
       lambda c, args, result: _add(c, f"{DECISION}.infeasible", not result.feasible)),
    _t("assign", "scan_counterexamples"),
    _t("conjectures", "enumerate_composite_runs"),
    _t("conjectures", "verify_grimm_range"),
    _t("primegen", "generate"),
    _t("primegen", "select_pool"),
    _t("primegen", "sweep"),
    _t("smooth", "enumerate_hn",
       lambda c, args, result: _add(c, "smooth.enumerate_hn.members", len(result))),
    _t("smooth", "hn_cardinality"),
    _t("smooth", "in_hn"),
    _t("cli", "run"),
    # JSON reports are ASCII (json.dumps escapes the rest), so characters are bytes.
    _t("cli", "render_report",
       lambda c, args, result: _add(c, "cli.report_bytes", len(result))),
)


# (name, unit) of the metrics derived beyond each span's calls and self time.
DERIVED = (
    ("arith.sieve_build_s", "s"),
    ("arith.probable_prime.hit_share", "share"),
    ("coprime.exponent_maps_per_decision", "ratio"),
    ("matching.left_vertices", "count"),
    ("matching.edges", "count"),
    ("assign.exact_representation_exists.infeasible", "count"),
    ("assign.matched_share", "ratio"),
    ("primegen.candidates", "count"),
    ("smooth.enumerate_hn.members", "count"),
    ("cli.report_bytes", "bytes"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for t in TARGETS:
        out[f"{t.name}.calls"] = "count"
        out[f"{t.name}.self_s"] = "s"
    out.update(DERIVED)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(setup: Snapshot, solve: Snapshot, solve_s: float) -> dict:
    """Per-layer metric values from the setup and solve snapshots of one traced
    run, all but `trace.overhead_s`, which needs an untraced run beside it."""
    out = {}
    for t in TARGETS:
        st = solve.stat(t.name)
        out[f"{t.name}.calls"] = st.calls
        out[f"{t.name}.self_s"] = st.self_s
    c = solve.counters
    decisions = solve.stat(DECISION).calls
    out["arith.sieve_build_s"] = (
        setup.stat("arith.PrimeSieve").total_s + solve.stat("arith.PrimeSieve").total_s
    )
    out["arith.probable_prime.hit_share"] = _ratio(
        c.get("arith.probable_prime.hits", 0), solve.stat("arith.probable_prime").calls
    )
    out["coprime.exponent_maps_per_decision"] = _ratio(
        solve.stat("coprime.window_prime_exponents").calls, decisions
    )
    out["matching.left_vertices"] = c.get("matching.left_vertices", 0)
    out["matching.edges"] = c.get("matching.edges", 0)
    out[f"{DECISION}.infeasible"] = c.get(f"{DECISION}.infeasible", 0)
    out["assign.matched_share"] = _ratio(
        solve.edges.get((DECISION, "matching.max_matching"), 0), decisions
    )
    out["primegen.candidates"] = solve.edges.get(("primegen.sweep", "arith.probable_prime"), 0)
    out["smooth.enumerate_hn.members"] = c.get("smooth.enumerate_hn.members", 0)
    out["cli.report_bytes"] = c.get("cli.report_bytes", 0)
    out["trace.solve_s"] = solve_s
    out["trace.unattributed_s"] = solve_s - solve.self_total()
    return out
