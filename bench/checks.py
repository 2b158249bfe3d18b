"""Correctness checks on the files one `fieldlab run` wrote.

Each check returns the names of the checks that failed, with the offending
value; an empty list means the experiment's outputs are correct.  Only the
standard library is used, so the timed harness never imports numpy.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from pathlib import Path

NORM_TOL = 1e-9
NORM_TOL_EXACT = 1e-12
IDENTITY_TOL = 1e-12
RATIO_FLOOR = 1.8
REPARAM_TOL = 1e-12
HJ_TOL = 1e-4
TANGENTIAL_TOL = 1e-8
NONFINITE = ("nan", "inf", "-inf")


class NonFinite(ValueError):
    """An output file holds a NaN or an infinity."""


def _nonfinite(obj, path: str = "") -> list[str]:
    """Paths of non-finite numbers; the CLI writes them as the strings 'nan' / 'inf'."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    if isinstance(obj, str) and obj.lower() in NONFINITE:
        return [path]
    return []


def _load_json(path: Path) -> dict:
    data = json.loads(path.read_text())
    bad = _nonfinite(data)
    if bad:
        raise NonFinite(f"{path.name}: non-finite value at {bad[0]}")
    return data


def _number(text: str) -> float:
    # extremal.csv writes numpy scalars with repr, which reads 'np.float64(0.3)' on numpy 2
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _csv_rows(path: Path) -> list[list[float]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = [[_number(x) for x in row] for row in csv.reader(lines[1:])]
    if any(not math.isfinite(x) for row in rows for x in row):
        raise NonFinite(f"{path.name}: non-finite value")
    return rows


def _state_file(path: Path) -> None:
    """final_state.bin: a 40-byte header, then (re, im) float64 pairs."""
    data = array("d")
    data.frombytes(path.read_bytes()[40:])
    if not all(map(math.isfinite, data)):
        raise NonFinite(f"{path.name}: non-finite amplitude")


def _worst(values) -> float:
    return max(values) if isinstance(values, list) else values


def _limit(failures: list[str], name: str, value: float, limit: float) -> None:
    if not value <= limit:
        failures.append(f"{name}={value:.3e} > {limit:.0e}")


def check_legendre(config: dict, out: Path) -> list[str]:
    failures: list[str] = []
    if not (out / "hamiltonian.txt").read_text().strip():
        failures.append("hamiltonian.txt is empty")
    _load_json(out / "meta.json")
    return failures


def check_evolve(config: dict, out: Path) -> list[str]:
    failures: list[str] = []
    rows = _csv_rows(out / "trajectory.csv")
    _state_file(out / "final_state.bin")
    tol = NORM_TOL_EXACT if config["evolve"].get("method") == "exact" else NORM_TOL
    _limit(failures, "evolve.norm_drift", max(abs(row[1] - 1.0) for row in rows), tol)
    return failures


def check_feynman(config: dict, out: Path) -> list[str]:
    failures: list[str] = []
    report = _load_json(out / "comparison.json")
    _csv_rows(out / "amplitudes.csv")
    identity = report["identity"]
    if identity["checked"] and not identity["max_abs_err"] < IDENTITY_TOL:
        failures.append(f"feynman.identity.max_abs_err={identity['max_abs_err']:.3e} "
                        f">= {IDENTITY_TOL:.0e}")
    if report["kernel"] == "fresnel_exact":
        d = report["distances"]
        ratios = [d[i] / d[i + 1] for i in range(len(d) - 1)]
        if not all(r >= RATIO_FLOOR for r in ratios):
            failures.append(f"feynman.refinement_ratio={min(ratios):.3f} < {RATIO_FLOOR}")
    return failures


def check_surface(config: dict, out: Path) -> list[str]:
    """Sweep ladders must converge; a `moves` ladder is a reported finding only."""
    failures: list[str] = []
    report = _load_json(out / "integrability.json")
    block = config["surface"]
    if block["schedule_a"]["kind"] == "sweep":
        if not all(r >= RATIO_FLOOR for r in report["ratios"]):
            failures.append(f"surface.ratio={min(report['ratios']):.3f} < {RATIO_FLOOR}")
        if report["flags"]:
            failures.append(f"surface.flags={report['flags']}")
    return failures


def check_classical(config: dict, out: Path) -> list[str]:
    failures: list[str] = []
    report = _load_json(out / "residuals.json")
    _csv_rows(out / "extremal.csv")
    checks = config["classical"].get("checks", ["hj_residuals"])
    if "reparameterization" in checks:
        rep = report["reparameterization"]
        for key in ("cyclic_diff", "parity_diff", "time_shift_diff"):
            _limit(failures, f"classical.reparameterization.{key}", rep[key], REPARAM_TOL)
    if "hj_residuals" in checks:
        hj = report["hj"]
        for key in ("dSdz_final_rel", "dSdt_final_rel", "dSdz_initial_rel", "hj_resid"):
            _limit(failures, f"classical.hj.{key}", _worst(hj[key]), HJ_TOL)
        for key in ("tangential_final", "tangential_initial"):
            _limit(failures, f"classical.hj.{key}", _worst(hj[key]), TANGENTIAL_TOL)
    return failures


CHECKS = {
    "legendre": check_legendre,
    "evolve": check_evolve,
    "feynman": check_feynman,
    "surface": check_surface,
    "classical": check_classical,
}


def check_outputs(command: str, config: dict, out: Path) -> list[str]:
    """Failed checks of one experiment; a missing or unreadable output is a failure."""
    try:
        return CHECKS[command](config, out)
    except NonFinite as exc:
        return [str(exc)]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
