"""Command-line front end.

Subcommands: simulate, identify, predict, observability, spectrum,
montecarlo. Exit codes: 0 success, 1 domain errors (singular Hankel,
unobservable system, ...), 2 usage or parse errors. The CLI performs no
arithmetic of its own; it only parses, dispatches and serializes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import io
from .errors import EmptySeries, LinIdentError, ParseError
from .dynsys import TimeSeries, is_observable, sample_continuous, simulate_discrete
from .ident import identify, identify_affine, predict, recover_continuous_spectrum
from .experiments import PROPERTIES, SamplingBox, TrialConfig, mc_estimate

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    parser = argparse.ArgumentParser(prog="linident",
                                     description="Linear prediction-model identification from time series")
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: --seed would otherwise stand for predict's --seed-window
    add = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    p = add("simulate", help="simulate a system to a series file")
    p.add_argument("--system", required=True, help="system spec file")
    p.add_argument("--x0", required=True,
                   help="initial state as --x0=v1,v2,... (the = lets v1 be negative)")
    p.add_argument("--len", dest="length", type=int, required=True, help="number of samples")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="sampling step override (continuous systems)")
    p.set_defaults(run=_run_simulate)

    p = add("identify", help="identify a prediction model")
    p.add_argument("--series", required=True, help="series file")
    p.add_argument("--n", type=int, required=True, help="model order")
    p.add_argument("--k", type=int, default=0, help="window start index")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--affine", action="store_true", help="identify an affine offset too")
    form.add_argument("--overdetermined", action="store_true",
                      help="least-squares over all available windows")
    p.set_defaults(run=_run_identify)

    p = add("predict", help="continue a series from a model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--seed-window", required=True,
                   help="last n samples as --seed-window=v1,...,vn (the = lets v1 be negative)")
    p.add_argument("--steps", type=int, required=True, help="number of future samples")
    p.set_defaults(run=_run_predict)

    p = add("observability", help="rank report for a system")
    p.add_argument("--system", required=True, help="system spec file")
    p.set_defaults(run=_run_observability)

    p = add("spectrum", help="recover continuous-time eigenvalues")
    p.add_argument("--model", required=True, help="model file (must carry a step)")
    p.set_defaults(run=_run_spectrum)

    p = add("montecarlo", help="measure-1 Monte Carlo estimate")
    p.add_argument("--property", required=True, choices=PROPERTIES, dest="prop")
    p.add_argument("--n", type=int, required=True, help="system dimension")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--box", default="-1,1",
                   help="sampling box as --box=lo,hi (the = lets lo be negative)")
    p.add_argument("--seed", type=int, default=TrialConfig.seed, help="RNG seed (nonnegative integer)")
    p.add_argument("--tol", type=float, default=TrialConfig.success_tol, help="success tolerance")
    p.add_argument("--cond-cap", type=float, default=TrialConfig.cond_cap,
                   help="condition cutoff for numerical rejection")
    p.set_defaults(run=_run_montecarlo)
    return parser


def _csv_floats(text: str, what: str, count: int) -> np.ndarray:
    """The ``count`` comma-separated floats of a vector option."""
    try:
        values = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"bad {what}: {text!r}") from exc
    if values.size != count:
        raise ValueError(f"{what} needs exactly {count} values, got {values.size}")
    return values


def _emit_series(series: TimeSeries, out_path) -> None:
    io.write_series(series, out_path)


def _run_simulate(args) -> None:
    spec = io.read_system(args.system)
    x0 = _csv_floats(args.x0, "--x0", spec.order)
    if args.lam is not None:
        spec = dataclasses.replace(spec, step=args.lam)
    simulate = simulate_discrete if spec.kind == "discrete" else sample_continuous
    series = simulate(spec, x0, args.length)
    _emit_series(series, args.out)


def _run_identify(args) -> None:
    series = io.read_series(args.series)
    if args.affine:
        report = identify_affine(series, args.n, k=args.k)
    else:
        report = identify(series, args.n, k=args.k, overdetermined=args.overdetermined)
    io.write_model(report, args.out)


def _run_predict(args) -> None:
    model = io.read_model(args.model)
    window = _csv_floats(args.seed_window, "--seed-window", model.order)
    _emit_series(predict(model, window, args.steps), args.out)


def _run_observability(args) -> None:
    spec = io.read_system(args.system)
    flag, rank = is_observable(spec.a, spec.c)
    io.write_report(io.document(rank=rank, order=spec.order, observable=flag), args.out)


def _run_spectrum(args) -> None:
    model = io.read_model(args.model)
    spectrum = recover_continuous_spectrum(model)
    io.write_report(io.document(eigenvalues=[[z.real, z.imag] for z in spectrum.values],
                                aliasing_risk=spectrum.aliasing_risk, step=model.step), args.out)


def _run_montecarlo(args) -> None:
    lo, hi = _csv_floats(args.box, "--box", 2)
    config = TrialConfig(n=args.n, trials=args.trials, seed=args.seed,
                         box=SamplingBox(float(lo), float(hi)),
                         success_tol=args.tol, cond_cap=args.cond_cap)
    report = mc_estimate(args.prop, config)
    io.write_report(io.document(**report.to_dict()), args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        args.run(args)
    except (ValueError, ParseError, EmptySeries, MemoryError) as exc:
        # every ValueError a command raises is an option or value out of range,
        # and every MemoryError a request (--len, --steps, --n) too large to hold
        name = type(exc).__name__ if isinstance(exc, LinIdentError) else "UsageError"
        print(f"{name}: {exc}", file=sys.stderr)
        print(f"usage: linident {args.command} --help for details", file=sys.stderr)
        return 2
    except LinIdentError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
