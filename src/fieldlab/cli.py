"""Batch front end: JSON run configs in, machine-readable results out.

A config names the Lagrangian, the lattice, a seed, and exactly one command
block (legendre / evolve / surface / feynman / classical).  Outputs land in
the output directory stamped with the config hash and tool version; repeated
runs of the same config are byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 resource guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (
    BoundaryData,
    grid_rows,
    hj_residuals,
    hj_variations,
    reparameterization_check,
    solve_extremal,
)
from .errors import (
    ConfigError,
    DegenerateKinetic,
    DimensionTooLarge,
    EnumerationTooLarge,
    FieldLabError,
    NewtonDivergence,
    NotSpacelike,
    ScheduleMismatch,
    SingularBVP,
    SolverDivergence,
)
from .evolve import EvolveParams, ExactPropagator, evolve_crank_nicolson, evolve_strang, observables
from .feynman import (
    PathIntegralSpec,
    TransferOperator,
    brute_force_amplitudes,
    feynman_vs_schrodinger,
)
from .lagrangian import legendre_transform, parse_lagrangian
from .lattice import (
    GaussianStateSpec,
    LatticeConfig,
    free_ground_state_covariance,
    init_wavefunctional,
    load_state,
    save_state,
    state_to_csv,
)
from .operators import compile_hamiltonian
from .surface import DeformationSchedule, SpacelikeSurface, integrability_test, shared_endpoints

COMMANDS = ("legendre", "evolve", "surface", "feynman", "classical")

_CONFIG_STAGE_ERRORS = (ValueError, KeyError, TypeError, FieldLabError)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return repr(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


# --- config access helpers -------------------------------------------------

def _finite(value) -> float | None:
    """float(value) for a finite JSON number, else None (bools are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _expect(block: dict, path: str, key: str, kind, required: bool = True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = block[key]
    if kind is float:
        number = _finite(value)
        if number is None:
            raise ConfigError(f"{path}.{key}", f"expected a finite number, got {value!r}")
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {value!r}")
    return value


def _number_list(block: dict, path: str, key: str, required: bool = True, default=None):
    raw = _expect(block, path, key, list, required, default)
    if raw is default and not required:
        return default
    out = []
    for i, value in enumerate(raw):
        number = _finite(value)
        if number is None:
            raise ConfigError(f"{path}.{key}[{i}]", f"expected a finite number, got {value!r}")
        out.append(number)
    return out


def _build_lagrangian(config: dict):
    block = _expect(config, "", "lagrangian", dict)
    text = _expect(block, "lagrangian", "text", str)
    params = _expect(block, "lagrangian", "params", dict, required=False, default={})
    for name, value in params.items():
        if _finite(value) is None:
            raise ConfigError(f"lagrangian.params.{name}",
                              f"expected a finite number, got {value!r}")
    try:
        return parse_lagrangian(text, params)
    except FieldLabError as exc:
        raise ConfigError("lagrangian.text", str(exc)) from exc


def _build_lattice(config: dict) -> LatticeConfig:
    block = _expect(config, "", "lattice", dict)
    try:
        return LatticeConfig(
            n_sites=_expect(block, "lattice", "n_sites", int),
            spacing=_expect(block, "lattice", "spacing", float, required=False, default=1.0),
            q_points=_expect(block, "lattice", "q_points", int),
            q_extent=_expect(block, "lattice", "q_extent", float),
            hbar=_expect(block, "lattice", "hbar", float, required=False, default=1.0),
            derivative=_expect(block, "lattice", "derivative", str, required=False,
                               default="spectral"),
        )
    except ValueError as exc:
        raise ConfigError("lattice", str(exc)) from exc


def _build_at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the errors it raises reported as config errors at ``path``."""
    try:
        return build(*args, **kwargs)
    except _CONFIG_STAGE_ERRORS as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_initial(block: dict, path: str, cfg: LatticeConfig, base_dir: Path):
    kind = _expect(block, path, "kind", str)
    if kind == "ground_state":
        mass = _expect(block, path, "mass", float)
        spec = _build_at(f"{path}.mass", free_ground_state_covariance, cfg, mass)
        centers = _number_list(block, path, "centers", required=False)
        if centers is not None:
            if len(centers) != cfg.n_sites:
                raise ConfigError(f"{path}.centers", f"expected {cfg.n_sites} entries")
            spec = GaussianStateSpec(tuple(centers), covariance=spec.covariance)
        return _build_at(path, init_wavefunctional, spec, cfg)
    if kind == "gaussian":
        centers = _number_list(block, path, "centers")
        widths = _number_list(block, path, "widths")
        phase = _expect(block, path, "phase", float, required=False, default=0.0)
        if len(centers) != cfg.n_sites or len(widths) != cfg.n_sites:
            raise ConfigError(path, f"centers and widths must have {cfg.n_sites} entries")
        spec = _build_at(f"{path}.widths", GaussianStateSpec, tuple(centers),
                         widths=tuple(widths), phase=phase)
        return _build_at(f"{path}.widths", init_wavefunctional, spec, cfg)
    if kind == "file":
        rel = _expect(block, path, "path", str)
        file_path = (base_dir / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        if not file_path.exists():
            raise ConfigError(f"{path}.path", f"file {file_path} does not exist")
        try:
            state = load_state(file_path, derivative=cfg.derivative)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.path", str(exc)) from exc
        if state.cfg != cfg:
            raise ConfigError(f"{path}.path", "stored lattice differs from the config lattice")
        return state
    raise ConfigError(f"{path}.kind", f"unknown initial-state kind {kind!r}")


# --- commands ---------------------------------------------------------------

def cmd_legendre(config: dict, outdir: Path, meta: dict) -> None:
    lagr = _build_lagrangian(config)
    block = config["legendre"]
    slope = _expect(block, "legendre", "slope", float, required=False, default=0.0)
    density = legendre_transform(lagr)
    try:
        text = density.emit(slope)
    except DegenerateKinetic as exc:
        raise ConfigError("legendre.slope", str(exc)) from exc
    with open(outdir / "hamiltonian.txt", "w") as fh:
        fh.write(text + "\n")
    print(text)
    _write_json(outdir / "meta.json", meta)


def cmd_evolve(config: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    lagr = _build_lagrangian(config)
    cfg = _build_lattice(config)
    block = config["evolve"]
    method = _expect(block, "evolve", "method", str, required=False, default="strang")
    steps = _expect(block, "evolve", "steps", int)
    dt = _expect(block, "evolve", "dt", float, required=False, default=1e-3)
    log_every = _expect(block, "evolve", "log_every", int, required=False, default=1)
    cn_tol = _expect(block, "evolve", "cn_tol", float, required=False, default=1e-10)
    if steps < 0:
        raise ConfigError("evolve.steps", "must be nonnegative")
    if dt <= 0:
        raise ConfigError("evolve.dt", "must be positive")
    if log_every < 1:
        raise ConfigError("evolve.log_every", "must be at least 1")
    if cn_tol <= 0:
        raise ConfigError("evolve.cn_tol", "must be positive")
    if method not in ("exact", "strang", "crank_nicolson"):
        raise ConfigError("evolve.method", f"unknown method {method!r}")
    initial = _build_initial(_expect(block, "evolve", "initial", dict), "evolve.initial",
                             cfg, base_dir)

    density = legendre_transform(lagr)
    hamiltonian = compile_hamiltonian(density, cfg)
    columns = (["t", "norm", "energy"]
               + [f"z_mean_{j}" for j in range(cfg.n_sites)]
               + [f"z2_mean_{j}" for j in range(cfg.n_sites)])
    rows = []

    def log_row(t, state):
        obs = observables(state, hamiltonian)
        rows.append([t, obs["norm"], obs["energy"], *obs["z_mean"], *obs["z2_mean"]])

    state = initial
    log_row(0.0, state)
    if steps > 0:
        if method == "exact":
            propagator = ExactPropagator(hamiltonian)
            for step in range(log_every, steps + 1, log_every):
                log_row(step * dt, propagator.propagate(initial, step * dt))
            state = propagator.propagate(initial, steps * dt)
            if steps % log_every != 0:
                log_row(steps * dt, state)
        else:
            stepper = evolve_strang if method == "strang" else evolve_crank_nicolson
            done = 0
            while done < steps:
                chunk = min(log_every, steps - done)
                state = stepper(hamiltonian, state,
                                EvolveParams(dt, chunk, method, cn_tol=cn_tol))
                done += chunk
                log_row(done * dt, state)
    with open(outdir / "trajectory.csv", "w") as fh:
        fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    save_state(state, outdir / "final_state.bin")
    _write_json(outdir / "meta.json", meta)


def _build_schedule_factory(block: dict, path: str, start: SpacelikeSurface,
                            total_time: float):
    kind = _expect(block, path, "kind", str)
    if kind == "sweep":
        direction = _expect(block, path, "direction", str, required=False,
                            default="left_right")
        if direction not in ("left_right", "right_left"):
            raise ConfigError(f"{path}.direction", f"unknown direction {direction!r}")

        def build(dt):
            return DeformationSchedule.sweep(start, total_time, dt, direction)

        return build
    if kind == "moves":
        raw = _expect(block, path, "moves", list)
        moves = []
        for i, entry in enumerate(raw):
            if (not isinstance(entry, list) or len(entry) != 2
                    or isinstance(entry[0], bool) or not isinstance(entry[0], int)
                    or _finite(entry[1]) is None):
                raise ConfigError(f"{path}.moves[{i}]", "expected [site, dt] pairs")
            if not 0 <= entry[0] < start.n_sites:
                raise ConfigError(f"{path}.moves[{i}]", f"site {entry[0]} out of range")
            moves.append((entry[0], float(entry[1])))

        def build(dt):
            return DeformationSchedule.refined(start, moves, dt)

        return build
    raise ConfigError(f"{path}.kind", f"unknown schedule kind {kind!r}")


def cmd_surface(config: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    lagr = _build_lagrangian(config)
    cfg = _build_lattice(config)
    block = config["surface"]
    total_time = _expect(block, "surface", "total_time", float)
    dt_values = _number_list(block, "surface", "dt_values")
    if not dt_values:
        raise ConfigError("surface.dt_values", "needs at least one step size")
    for i, dt in enumerate(dt_values):
        if dt <= 0:
            raise ConfigError(f"surface.dt_values[{i}]", "must be positive")
    integrator = _expect(block, "surface", "integrator", str, required=False, default="exact")
    ratio_floor = _expect(block, "surface", "ratio_floor", float, required=False, default=1.8)
    if integrator not in ("exact", "crank_nicolson"):
        raise ConfigError("surface.integrator", f"unknown integrator {integrator!r}")
    start_times = _number_list(block, "surface", "start_times", required=False)
    if start_times is None:
        start = SpacelikeSurface.flat(cfg.n_sites, 0.0, cfg.spacing)
    else:
        if len(start_times) != cfg.n_sites:
            raise ConfigError("surface.start_times", f"expected {cfg.n_sites} entries")
        try:
            start = SpacelikeSurface(tuple(start_times), cfg.spacing)
        except NotSpacelike as exc:
            raise ConfigError("surface.start_times", str(exc)) from exc
    initial = _build_initial(_expect(block, "surface", "initial", dict), "surface.initial",
                             cfg, base_dir)
    build_a = _build_schedule_factory(_expect(block, "surface", "schedule_a", dict),
                                      "surface.schedule_a", start, total_time)
    build_b = _build_schedule_factory(_expect(block, "surface", "schedule_b", dict),
                                      "surface.schedule_b", start, total_time)
    # every schedule of the ladder, counted before it is built and walked before the first solve
    endpoints = None
    for i, dt in enumerate(dt_values):
        schedules = []
        for name, build in (("schedule_a", build_a), ("schedule_b", build_b)):
            try:
                schedules.append(build(dt))
            except ValueError as exc:
                raise ConfigError(f"surface.dt_values[{i}]", str(exc)) from exc
            try:
                schedules[-1].end()
            except NotSpacelike as exc:
                raise ConfigError(f"surface.{name}", str(exc)) from exc
        try:
            endpoints = shared_endpoints(*schedules, endpoints)
        except ScheduleMismatch as exc:
            raise ConfigError("surface.schedule_b", str(exc)) from exc

    density = legendre_transform(lagr)
    report = integrability_test(initial, density, build_a, build_b, dt_values,
                                integrator=integrator, ratio_floor=ratio_floor)
    report["spec_hash"] = meta["config_sha256"]
    report["meta"] = meta
    _write_json(outdir / "integrability.json", report)
    _write_json(outdir / "meta.json", meta)


def cmd_feynman(config: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    lagr = _build_lagrangian(config)
    cfg = _build_lattice(config)
    block = config["feynman"]
    kernel = _expect(block, "feynman", "kernel", str, required=False, default="fresnel_exact")
    dt = _expect(block, "feynman", "dt", float)
    t_steps = _expect(block, "feynman", "t_steps", int)
    levels = _expect(block, "feynman", "levels", int, required=False, default=3)
    identity_mode = _expect(block, "feynman", "identity_check", str, required=False,
                            default="auto")
    if identity_mode not in ("auto", "force", "skip"):
        raise ConfigError("feynman.identity_check", f"unknown mode {identity_mode!r}")
    try:
        pspec = PathIntegralSpec(t_steps, dt, kernel)
    except ValueError as exc:
        raise ConfigError("feynman", str(exc)) from exc
    if levels < 1:
        raise ConfigError("feynman.levels", "must be at least 1")
    if kernel == "lagrangian_riemann" and dt == 0.0:
        raise ConfigError("feynman.dt", "the lagrangian_riemann kernel needs dt > 0")
    initial = _build_initial(_expect(block, "feynman", "initial", dict), "feynman.initial",
                             cfg, base_dir)

    report = feynman_vs_schrodinger(initial, pspec, lagr, levels)
    transfer_state = TransferOperator(pspec, lagr, cfg).evolve(initial)

    identity = {"checked": False}
    histories = cfg.q_points ** (cfg.n_sites * (pspec.t_steps + 1))
    if identity_mode == "force" or (identity_mode == "auto" and histories <= 2 ** 14):
        amps = brute_force_amplitudes(initial, pspec, lagr)
        err = float(np.max(np.abs(amps - transfer_state.psi)))
        identity = {"checked": True, "max_abs_err": err, "passes_1e12": err < 1e-12}
    report["identity"] = identity
    report["spec_hash"] = meta["config_sha256"]
    report["meta"] = meta
    _write_json(outdir / "comparison.json", report)
    state_to_csv(transfer_state, outdir / "amplitudes.csv",
                 meta_line=f"config_sha256={meta['config_sha256']} version={meta['version']}")
    _write_json(outdir / "meta.json", meta)


def cmd_classical(config: dict, outdir: Path, meta: dict) -> None:
    lagr = _build_lagrangian(config)
    block = config["classical"]
    bblock = _expect(block, "classical", "boundary", dict)
    arrays = {}
    for key in ("t0", "t1", "z0", "z1"):
        arrays[key] = _number_list(bblock, "classical.boundary", key)
    spacing = _expect(bblock, "classical.boundary", "spacing", float, required=False,
                      default=1.0)
    if spacing <= 0:
        raise ConfigError("classical.boundary.spacing", "must be positive")
    dt_c = _expect(block, "classical", "dt_c", float, required=False, default=1e-3)
    fd_epsilon = _expect(block, "classical", "fd_epsilon", float, required=False, default=1e-4)
    checks = _expect(block, "classical", "checks", list, required=False,
                     default=["hj_residuals"])
    for i, name in enumerate(checks):
        if name not in ("hj_residuals", "reparameterization"):
            raise ConfigError(f"classical.checks[{i}]", f"unknown check {name!r}")
    try:
        bd = BoundaryData(arrays["t0"], arrays["t1"], arrays["z0"], arrays["z1"], spacing)
    except (ValueError, NotSpacelike) as exc:
        raise ConfigError("classical.boundary", str(exc)) from exc
    try:
        grid_rows(bd, dt_c)
    except ValueError as exc:
        raise ConfigError("classical.dt_c", str(exc)) from exc
    # the finest grid of the run, checked against the grid guard before any solve
    grid_rows(bd, dt_c / 4.0 if "reparameterization" in checks else dt_c)
    if "hj_residuals" in checks:
        try:
            for pair in hj_variations(bd, fd_epsilon).values():
                for varied in pair:
                    grid_rows(varied, dt_c)
        except (ValueError, NotSpacelike) as exc:
            raise ConfigError("classical.fd_epsilon", str(exc)) from exc

    sol = solve_extremal(bd, lagr, dt_c)
    payload = {"action": sol.action, "residual": sol.residual, "n_rows": sol.n_rows}
    if "hj_residuals" in checks:
        payload["hj"] = hj_residuals(bd, lagr, dt_c, fd_epsilon)
    if "reparameterization" in checks:
        payload["reparameterization"] = reparameterization_check(bd, lagr, dt_c)
    payload["spec_hash"] = meta["config_sha256"]
    payload["meta"] = meta
    _write_json(outdir / "residuals.json", payload)
    with open(outdir / "extremal.csv", "w") as fh:
        fh.write(f"# config_sha256={meta['config_sha256']} version={meta['version']}\n")
        fh.write("t,x,z\n")
        for r in range(sol.z.shape[0]):
            for j in range(sol.z.shape[1]):
                row = (sol.row_times[r, j], j * bd.spacing, sol.z[r, j])
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
    _write_json(outdir / "meta.json", meta)


# --- entry point -------------------------------------------------------------

def run_config(config: dict, outdir: Path, base_dir: Path) -> None:
    if not isinstance(config, dict):
        raise ConfigError("", "config root must be an object")
    present = [name for name in COMMANDS if name in config]
    if len(present) != 1:
        raise ConfigError("", f"exactly one command block required, found {present or 'none'}")
    command = present[0]
    if not isinstance(config[command], dict):
        raise ConfigError(command, "command block must be an object")
    seed = _expect(config, "", "seed", int, required=False, default=0)
    meta = {
        "config_sha256": config_hash(config),
        "version": __version__,
        "command": command,
        "seed": seed,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    if command == "legendre":
        cmd_legendre(config, outdir, meta)
    elif command == "evolve":
        cmd_evolve(config, outdir, meta, base_dir)
    elif command == "surface":
        cmd_surface(config, outdir, meta, base_dir)
    elif command == "feynman":
        cmd_feynman(config, outdir, meta, base_dir)
    else:
        cmd_classical(config, outdir, meta)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fieldlab",
                                     description="lattice wavefunctional laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runp = sub.add_parser("run", help="execute a JSON run config")
    runp.add_argument("config", help="path to the config file")
    runp.add_argument("--out", help="output directory (overrides config output_dir)")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        print(f"config error: {config_path} not found", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2

    if args.out is not None:
        outdir = Path(args.out)
    elif isinstance(config, dict) and isinstance(config.get("output_dir"), str):
        outdir = config_path.parent / config["output_dir"]
    else:
        print("config error: output_dir: missing (or pass --out)", file=sys.stderr)
        return 2

    try:
        run_config(config, outdir, config_path.parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DimensionTooLarge, EnumerationTooLarge) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except (SingularBVP, SolverDivergence, NewtonDivergence, NotSpacelike,
            DegenerateKinetic) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
