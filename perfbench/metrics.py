"""Every metric the benchmark reports, with its unit, its direction and, for
the per-layer metrics, the end-to-end metric and workload it should move.

End-to-end metrics are reported on every workload (``--trace 0``); what
``ops_per_s`` counts and what ``latency_ms_p50`` times differs by workload:

    mc-sweep     Monte Carlo trials; one round of all 20 mc_estimate cells
    ident-short  problems; one identification pipeline on one problem
    cli-long     chains; one chain of five linident subprocesses

Per-layer metrics come from the traced run (``--trace 1``); a function that
a workload never calls reads 0 there.
"""

from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

MC = "ops_per_s@mc-sweep"
ID = "ops_per_s,latency_ms_p50@ident-short"
CLI = "latency_ms_p50@cli-long"
PROPERTIES = ("distinct-eigenvalues", "observable", "krylov-independent",
              "end-to-end-identifiable", "end-to-end-continuous")

# function span -> what a faster function should move
_FUNCTIONS = (
    ("numkit.poly_roots", ID),
    ("numkit.solve_linear", f"{ID}; {MC}"),
    ("numkit.condition_estimate", f"{ID}; {MC}"),
    ("numkit.char_poly", MC),
    ("numkit.discriminant", MC),
    ("numkit.mat_exp", MC),
    ("numkit.numerical_rank", MC),
    ("dynsys.simulate_discrete", MC),
    ("dynsys.sample_continuous", f"{MC}; {CLI}"),
    ("dynsys.is_observable", MC),
    ("dynsys.krylov_matrix", MC),
    ("dynsys.char_poly_of_sampled", MC),
    ("ident.identify", f"{ID}; {CLI}"),
    ("ident.identify.overdetermined", CLI),
    ("ident.identify_affine", ID),
    ("ident.estimate_order", ID),
    ("ident.verify_conjugacy", ID),
    ("ident.assess_stability", ID),
    ("ident.recover_continuous_spectrum", ID),
    ("ident.predict", f"{ID}; {CLI}"),
)

# name, unit, better, moves
PER_LAYER = tuple(
    [row for fn, moves in _FUNCTIONS for row in (
        (f"{fn}.calls", "count", "lower", moves),
        (f"{fn}.busy_ms", "ms", "lower", moves),
        (f"{fn}.us_p50", "us", "lower", moves),
    )]
    + [
        ("ident.predict.us_per_step", "us", "lower", CLI),
        ("experiments.draw_sample.calls", "count", "lower", MC),
        ("experiments.draw_sample.us_p50", "us", "lower", MC),
    ]
    + [(f"experiments.evaluate_property.{p}.us_p50", "us", "lower", MC)
       for p in PROPERTIES]
    + [(f"experiments.{p}.n{n}.trials_per_s", "1/s", "higher", MC)
       for p in PROPERTIES for n in (2, 4, 8, 12)]
    + [(f"experiments.{p}.decided_frac", "ratio", "higher", MC)
       for p in PROPERTIES]
    + [row for fn in ("io.read_series", "cli._emit_series", "io.dumps") for row in (
        (f"{fn}.busy_ms", "ms", "lower", CLI),
        (f"{fn}.bytes", "bytes", "lower", CLI),
    )]
    + [
        ("cli.interp_start_ms", "ms", "lower", CLI),
        ("cli.import_ms", "ms", "lower", CLI),
    ]
    + [(f"cli.{c}.ms_p50", "ms", "lower", CLI)
       for c in ("simulate", "identify", "identify-overdetermined", "predict", "spectrum")]
    + [(f"{layer}.self_ms", "ms", "lower", moves) for layer, moves in (
        ("numkit", f"{ID}; {MC}"),
        ("dynsys", f"{MC}; {CLI}"),
        ("ident", f"{ID}; {CLI}"),
        ("experiments", MC),
        ("io", CLI),
    )]
    + [
        ("trace.overhead_pct", "%", "lower", "none: cost of tracing itself"),
        ("trace.spans", "count", "lower", "none: spans recorded"),
    ]
)
