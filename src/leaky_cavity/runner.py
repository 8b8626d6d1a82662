"""Scenario execution: compute the requested artifacts and write a manifest."""

import hashlib
import os

from . import io as lcio
from .artifacts import ARTIFACTS
from .scenario import load_scenario


def _sha256(path) -> str:
    """Hex SHA-256 of the file at ``path``, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


# The bound of each figure a run puts into its manifest ``checks``, by which ``verify``
# judges its checks of them too.  ``run`` judges all but the Monte-Carlo max pull, taken
# over every grid point: no look-elsewhere rule for that maximum is set yet.
BOUNDS = {
    "amplitude_oracle_max_rel_deviation": 1e-8,
    "noise_oracle_max_pull_stderr": 5.0,
    "bath_oracle_max_rel_deviation": 0.02,
    "bath_oracle_norm_error": 1e-8,
}


def failed_checks(checks: dict) -> list:
    """Names of the figures in ``checks`` beyond their bound, the max pull aside; NaN fails."""
    return [name for name, value in checks.items()
            if name != "noise_oracle_max_pull_stderr" and not value <= BOUNDS[name]]


def run(config_path, output_dir, seed_override: int | None = None) -> dict:
    """Run a scenario and return the manifest (also written to manifest.json).

    If an artifact fails, the regular files at the run's paths are removed, the one kind a
    run writes, and the artifact's error is raised.  An earlier run's manifest goes before
    the first write, so a failed run leaves none naming removed files.
    """
    config = load_scenario(config_path, seed_override)
    os.makedirs(output_dir, exist_ok=True)
    manifest_path = os.path.join(output_dir, "manifest.json")
    if os.path.lexists(manifest_path):
        os.remove(manifest_path)
    written = []

    def target(name):
        path = os.path.join(output_dir, name)
        written.append(path)
        return path

    checks = {}
    try:
        for name, artifact in ARTIFACTS.items():
            if name in config.outputs:
                checks.update(artifact.write(config, target) or {})
    except Exception:
        for path in written:
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
        raise

    manifest = {
        "config_sha256": _sha256(config_path),
        "files": {os.path.basename(p): _sha256(p) for p in written},
        "checks": checks,
    }
    if failed := failed_checks(checks):
        manifest["failed_checks"] = failed
    lcio._write_json(manifest_path, manifest)
    return manifest
