"""Command-line front end: run scenarios, verify against oracles, decompose dipoles.

Exit codes: 0 success, 1 validation error, 2 oracle failure, 3 I/O error.
"""

import argparse
import os
import sys

from . import runner, verification
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2
EXIT_IO = 3


def default_scenario_path() -> str:
    """Path of the scenario shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", "default_scenario.yaml")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leaky-cavity",
        description="Closed-form observables of a nonlinearly driven leaky cavity, "
                    "validated against brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("--config", required=True, help="scenario YAML file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed-override", type=int, default=None,
                       help="replace the configured oracle seed")

    ver_p = sub.add_parser("verify", help="run the oracle suite against the closed forms")
    ver_p.add_argument("--config", default=None,
                       help="scenario YAML file (default: the shipped scenario)")
    ver_p.add_argument("--seed-override", type=int, default=None)

    dec_p = sub.add_parser("decompose",
                           help="Fourier-decompose a dipole time series into harmonics")
    dec_p.add_argument("--config", required=True,
                       help="scenario YAML supplying the drive parameters")
    dec_p.add_argument("--input", default=None,
                       help="time-series CSV (default: the config's dipole.series)")
    dec_p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_run(args) -> int:
    manifest = runner.run(args.config, args.out, seed_override=args.seed_override)
    print(f"wrote {len(manifest['files'])} artifacts to {args.out}")
    for name, value in sorted(manifest["checks"].items()):
        print(f"  {name} = {value:.3e}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config_path = args.config or default_scenario_path()
    config = load_scenario(config_path)  # fail fast on invalid config
    seed = args.seed_override if args.seed_override is not None else (
        config.oracle.seed if config.oracle.seed is not None else 1234)
    results = verification.run_all(config_path=config_path, seed=seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_ORACLE if failed else EXIT_OK


def _cmd_decompose(args) -> int:
    from .dipole import fourier_decompose
    from .io import read_timeseries_csv, write_dipole_spectrum_json

    config = load_scenario(args.config)
    if args.input is not None:
        spectrum = fourier_decompose(read_timeseries_csv(args.input), config.drive)
    else:
        spectrum = config.spectrum
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "dipole_spectrum.json")
    write_dipole_spectrum_json(out_path, spectrum)
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seed = getattr(args, "seed_override", None)
    if seed is not None and seed < 0:
        print(f"invalid option: --seed-override: must be a non-negative integer, got {seed}",
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_decompose(args)
    except ScenarioError as exc:
        for path, message in exc.errors.items():
            print(f"invalid config: {path}: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
