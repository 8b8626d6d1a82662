"""Command-line front end: run scenarios, verify against oracles, decompose dipoles.

Exit codes: 0 success, 1 validation error (a usage error too), 2 oracle failure
(a failed ``verify`` check, or a ``run`` figure beyond its bound), 3 I/O error.
"""

import argparse
import os
import sys

import yaml

from . import io as lcio, runner, verification
from .scenario import YAML_LOADER, ScenarioError, decompose_series, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2
EXIT_IO = 3


def default_scenario_path() -> str:
    """Path of the scenario shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", "default_scenario.yaml")


def _yaml_value(text: str):
    """Option text read as YAML like the field it stands for; unreadable or null text stays text."""
    try:
        value = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError:
        return text
    return text if value is None else value


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as invalid input, not argparse's 2.

    Its subparsers are made of its own class, so they exit alike.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leaky-cavity",
        description="Closed-form observables of a nonlinearly driven leaky cavity, "
                    "validated against brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("--config", required=True, help="scenario YAML file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed-override", type=_yaml_value, default=None,
                       help="replace the configured oracle seed")

    ver_p = sub.add_parser("verify", help="run the oracle suite against the closed forms")
    ver_p.add_argument("--config", default=None,
                       help="scenario YAML file (default: the shipped scenario)")
    ver_p.add_argument("--seed-override", type=_yaml_value, default=None)

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
    for name in manifest.get("failed_checks", ()):
        print(f"oracle check failed: {name} = {manifest['checks'][name]:.3e} exceeds its "
              f"bound {runner.BOUNDS[name]:.3e}", file=sys.stderr)
    return EXIT_ORACLE if "failed_checks" in manifest else EXIT_OK


def _cmd_verify(args) -> int:
    results = verification.run_all(args.config or default_scenario_path(), args.seed_override)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_ORACLE if failed else EXIT_OK


def _cmd_decompose(args) -> int:
    config = load_scenario(args.config)
    spectrum = (config.spectrum if args.input is None
                else decompose_series(args.input, config.spectrum.drive))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "dipole_spectrum.json")
    lcio.write_dipole_spectrum_json(out_path, spectrum)
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
