"""Batch front end: JSON run configs in, machine-readable results out.

A config names the Lagrangian, the lattice, a seed, and exactly one command
block (legendre / evolve / surface / feynman / classical).  Outputs land in
the output directory stamped with the config hash and tool version; repeated
runs of the same config are byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DimensionTooLarge,
    FieldLabError,
    NonFiniteCoefficient,
    NonFiniteResult,
    NumericalFailure,
    ResourceGuard,
)
from .lagrangian import legendre_transform, parameter_names, parse_lagrangian
from .lattice import (
    GaussianStateSpec,
    LatticeConfig,
    free_ground_state_covariance,
    init_wavefunctional,
    load_state,
    save_state,
    state_to_csv,
    write_csv,
)

# CPython's built-in SHA-256, as the random module takes its SHA-512: hashlib would load
# OpenSSL's libcrypto, 3.3 MB of every run's RSS, to hash a few hundred bytes.  hashlib
# serves only an interpreter built without the built-in module.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

COMMANDS = ("legendre", "evolve", "surface", "feynman", "classical")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def _require_finite(values, what: str) -> None:
    """Refuse to write NaN or infinity: a run that produced them has failed."""
    if not np.isfinite(values).all():
        raise NonFiniteResult(f"{what} holds NaN or infinity")


def _jsonable(obj, where: str):
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        _require_finite(obj, where)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload, path.name), sort_keys=True, indent=2) + "\n")


def _write_report(path: Path, meta: dict, report: dict) -> None:
    """A command's result JSON, stamped with the config hash and the run's meta."""
    _write_json(path, {**report, "spec_hash": meta["config_sha256"], "meta": meta})


def _write_csv(path: Path, meta: dict, columns, rows) -> None:
    """A stamped CSV of float rows; rows of numpy scalars are written as plain floats."""
    table = np.asarray(rows, dtype=float)
    _require_finite(table, path.name)
    write_csv(path, columns, table.tolist(), meta)


# --- config schema -----------------------------------------------------------

def _rule(ok, message: str):
    """A check on a typed value: ConfigError(path, message) unless ok(value)."""
    def check(value, path: str) -> None:
        if not ok(value):
            raise ConfigError(path, message.format(value=value))
    return check


def _each(check):
    """``check`` applied to every entry of a list, each at ``path[i]``."""
    def check_all(values, path: str) -> None:
        for i, value in enumerate(values):
            check(value, f"{path}[{i}]")
    return check_all


def _one_of(*choices: str):
    return _rule(lambda value: value in choices,
                 f"expected one of {', '.join(choices)}, got {{value!r}}")


_POSITIVE = _rule(lambda value: value > 0, "must be positive")
_NONNEGATIVE = _rule(lambda value: value >= 0, "must be nonnegative")
_AT_LEAST_1 = _rule(lambda value: value >= 1, "must be at least 1")
_NONEMPTY = _rule(len, "needs at least one entry")
_NONEMPTY_TEXT = _rule(len, "must not be empty")
_NO_NUL = _rule(lambda value: "\0" not in value, "holds a NUL character")

REQUIRED = object()  # default of a key that must be present

# block -> key -> (kind, default or REQUIRED, *rules).  A kind is float (a
# finite number), int (64-bit), str, dict, [kind] (a list, each entry of that
# kind at path[i]), (kind, ...) (a list with one entry of each kind) or
# {str: kind} (an object, each value of that kind at path.name).  Code that
# depends on another field decides the rest: the root's `lattice` is required
# by evolve, surface and feynman, and `initial` and `schedule` name by their
# `kind` the table of their remaining keys.  `output_dir` is needed only without
# --out, but is checked either way.  Any other key is refused, but the root's
# command block.
SCHEMA = {
    "": {"lagrangian": (dict, REQUIRED), "lattice": (dict, None), "seed": (int, 0),
         "output_dir": (str, None, _NONEMPTY_TEXT, _NO_NUL)},
    "lagrangian": {"text": (str, REQUIRED), "params": ({str: float}, {})},
    "lattice": {
        "n_sites": (int, REQUIRED),
        "spacing": (float, 1.0),
        "q_points": (int, REQUIRED),
        "q_extent": (float, REQUIRED),
        "hbar": (float, 1.0),
        "derivative": (str, "spectral"),
    },
    "legendre": {"slope": (float, 0.0)},
    "evolve": {
        "method": (str, "strang", _one_of("exact", "strang", "crank_nicolson")),
        "steps": (int, REQUIRED, _NONNEGATIVE),
        "dt": (float, 1e-3, _POSITIVE),
        "log_every": (int, 1, _AT_LEAST_1),
        "cn_tol": (float, 1e-10, _POSITIVE),
        "initial": (dict, REQUIRED),
    },
    "surface": {
        "total_time": (float, REQUIRED),
        "dt_values": ([float], REQUIRED, _NONEMPTY, _each(_POSITIVE)),
        "integrator": (str, "exact", _one_of("exact", "crank_nicolson")),
        "ratio_floor": (float, 1.8),
        "start_times": ([float], None),
        "initial": (dict, REQUIRED),
        "schedule_a": (dict, REQUIRED),
        "schedule_b": (dict, REQUIRED),
    },
    "feynman": {
        "kernel": (str, "fresnel_exact", _one_of("fresnel_exact", "lagrangian_riemann")),
        "dt": (float, REQUIRED, _NONNEGATIVE),
        "t_steps": (int, REQUIRED, _NONNEGATIVE),
        "levels": (int, 3, _AT_LEAST_1),
        "identity_check": (str, "auto", _one_of("auto", "force", "skip")),
        "initial": (dict, REQUIRED),
    },
    "classical": {
        "boundary": (dict, REQUIRED),
        "dt_c": (float, 1e-3, _POSITIVE),
        "fd_epsilon": (float, 1e-4),
        "checks": ([str], ["hj_residuals"], _each(_one_of("hj_residuals", "reparameterization"))),
    },
    "classical.boundary": {
        "t0": ([float], REQUIRED),
        "t1": ([float], REQUIRED),
        "z0": ([float], REQUIRED),
        "z1": ([float], REQUIRED),
        "spacing": (float, 1.0, _POSITIVE),
    },
    "initial": {"kind": (str, REQUIRED, _one_of("ground_state", "gaussian", "file"))},
    "initial.ground_state": {"mass": (float, REQUIRED), "centers": ([float], None)},
    "initial.gaussian": {
        "centers": ([float], REQUIRED),
        "widths": ([float], REQUIRED),
        "phase": (float, 0.0),
    },
    "initial.file": {"path": (str, REQUIRED)},
    "schedule": {"kind": (str, REQUIRED, _one_of("sweep", "moves"))},
    "schedule.sweep": {"direction": (str, "left_right", _one_of("left_right", "right_left"))},
    "schedule.moves": {"moves": ([(int, float)], REQUIRED)},
}


def _typed(value, kind, path: str):
    if isinstance(kind, tuple):
        items = _typed(value, list, path)
        if len(items) != len(kind):
            raise ConfigError(path, f"expected {len(kind)} entries, got {value!r}")
        return [_typed(item, k, f"{path}[{i}]") for i, (item, k) in enumerate(zip(items, kind))]
    if isinstance(kind, list):
        return [_typed(item, kind[0], f"{path}[{i}]")
                for i, item in enumerate(_typed(value, list, path))]
    if isinstance(kind, dict):
        return {name: _typed(item, kind[str], f"{path}.{name}")
                for name, item in _typed(value, dict, path).items()}
    if kind is float:
        # bools are not numbers; NaN compares false, and ints compare exactly
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if not -2 ** 63 <= value < 2 ** 63:
            raise ConfigError(path, "must fit in 64 bits")
        return value
    if not isinstance(value, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {value!r}")
    return value


def _read(block: dict, path: str, table: dict, known=()) -> dict:
    """Every key of ``table`` from ``block`` at ``path``: typed, defaulted and checked.
    A key in neither ``table`` nor ``known`` is refused: a misspelt key is an error, not a default."""
    for key in block:
        if key not in table and key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    out = {}
    for key, (kind, default, *rules) in table.items():
        where = f"{path}.{key}" if path else key
        if key not in block:
            if default is REQUIRED:
                raise ConfigError(where, "missing required field")
            out[key] = default
            continue
        out[key] = value = _typed(block[key], kind, where)
        for rule in rules:
            rule(value, where)
    return out


def _build_at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), its errors config errors at ``path``; a guard's refusal passes."""
    try:
        return build(*args, **kwargs)
    except ResourceGuard:
        raise
    except (ValueError, KeyError, TypeError, ArithmeticError, FieldLabError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_lagrangian(block: dict):
    opts = _read(block, "lagrangian", SCHEMA["lagrangian"])
    try:
        lagr = _build_at("lagrangian.text", parse_lagrangian, opts["text"], opts["params"])
    except ConfigError as exc:
        # each parameter is finite, but their products can overflow a coefficient
        if opts["params"] and isinstance(exc.__cause__, NonFiniteCoefficient):
            raise ConfigError("lagrangian.params", str(exc.__cause__)) from exc.__cause__
        raise
    # a coupling left out of the text is a mistake, not a default
    unused = sorted(opts["params"].keys() - parameter_names(opts["text"]))
    if unused:
        raise ConfigError(f"lagrangian.params.{unused[0]}", "not used by lagrangian.text")
    return lagr


def _build_lattice(block: dict | None) -> LatticeConfig:
    if block is None:
        raise ConfigError("lattice", "missing required field")
    return _build_at("lattice", LatticeConfig, **_read(block, "lattice", SCHEMA["lattice"]))


def _build_initial(block: dict, path: str, cfg: LatticeConfig, base_dir: Path):
    kind = _read(block, path, SCHEMA["initial"], known=block)["kind"]  # its kind refuses the rest
    opts = _read(block, path, SCHEMA[f"initial.{kind}"], known=SCHEMA["initial"])
    if kind == "ground_state":
        spec = _build_at(f"{path}.mass", free_ground_state_covariance, cfg, opts["mass"])
        centers = opts["centers"]
        if centers is not None:
            if len(centers) != cfg.n_sites:
                raise ConfigError(f"{path}.centers", f"expected {cfg.n_sites} entries")
            spec = GaussianStateSpec(tuple(centers), covariance=spec.covariance)
        return _build_at(path, init_wavefunctional, spec, cfg)
    if kind == "gaussian":
        centers, widths = opts["centers"], opts["widths"]
        if len(centers) != cfg.n_sites or len(widths) != cfg.n_sites:
            raise ConfigError(path, f"centers and widths must have {cfg.n_sites} entries")
        spec = _build_at(f"{path}.widths", GaussianStateSpec, tuple(centers),
                         widths=tuple(widths), phase=opts["phase"])
        return _build_at(f"{path}.widths", init_wavefunctional, spec, cfg)
    rel = opts["path"]
    file_path = (base_dir / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
    try:
        state = load_state(file_path, derivative=cfg.derivative)
    except FileNotFoundError:
        raise ConfigError(f"{path}.path", f"file {file_path} does not exist") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}.path", str(exc)) from exc
    if state.cfg != cfg:
        raise ConfigError(f"{path}.path", "stored lattice differs from the config lattice")
    return state


# --- commands: each gets the parsed Lagrangian, the root's `lattice` block (None when
# absent) and its own block as read through SCHEMA, imports only the modules it runs, and
# resolves its config, running every guard, before it builds any state or solves

def cmd_legendre(lagr, lattice, opts: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    density = legendre_transform(lagr)
    text = _build_at("legendre.slope", density.emit, opts["slope"])
    (outdir / "hamiltonian.txt").write_text(text + "\n")
    print(text)


def cmd_evolve(lagr, lattice, opts: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    from .evolve import EvolveParams, observables, trajectory
    from .operators import check_dense, compile_hamiltonian

    cfg = _build_lattice(lattice)
    params = EvolveParams(opts["dt"], opts["steps"], opts["cn_tol"])  # the step guard
    if opts["method"] == "exact" and params.steps:  # zero steps build no dense operator
        check_dense(cfg)

    initial = _build_initial(opts["initial"], "evolve.initial", cfg, base_dir)
    hamiltonian = compile_hamiltonian(legendre_transform(lagr), cfg)
    columns = ["t", "norm", "energy", *(f"{name}_{j}" for name in ("z_mean", "z2_mean")
                                        for j in range(cfg.n_sites))]
    rows = []
    for n, state in trajectory(hamiltonian, initial, opts["method"], params, opts["log_every"]):
        obs = observables(state, hamiltonian)
        rows.append([n * params.dt, obs["norm"], obs["energy"], *obs["z_mean"], *obs["z2_mean"]])
    _require_finite(state.psi, "final_state.bin")
    _write_csv(outdir / "trajectory.csv", meta, columns, rows)
    save_state(state, outdir / "final_state.bin")


def _build_schedule_factory(block: dict, path: str, start, total_time: float):
    """``dt -> DeformationSchedule`` for the block at ``path``, starting on surface ``start``."""
    from .surface import DeformationSchedule

    kind = _read(block, path, SCHEMA["schedule"], known=block)["kind"]  # its kind refuses the rest
    opts = _read(block, path, SCHEMA[f"schedule.{kind}"], known=SCHEMA["schedule"])
    if kind == "sweep":
        _POSITIVE(total_time, "surface.total_time")  # moves schedules never read it
        return lambda dt: DeformationSchedule.sweep(start, total_time, dt, opts["direction"])
    moves = opts["moves"]
    for i, (site, _) in enumerate(moves):
        if not 0 <= site < start.n_sites:
            raise ConfigError(f"{path}.moves[{i}]", f"site {site} out of range")
    return lambda dt: DeformationSchedule.refined(start, moves, dt)


def cmd_surface(lagr, lattice, opts: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    from .surface import MAX_LADDER_MOVES, SpacelikeSurface, integrability_test, shared_endpoints

    cfg = _build_lattice(lattice)
    total_time, dt_values, start_times = opts["total_time"], opts["dt_values"], opts["start_times"]
    if start_times is None:
        start_times = [0.0] * cfg.n_sites
    if len(start_times) != cfg.n_sites:
        raise ConfigError("surface.start_times", f"expected {cfg.n_sites} entries")
    start = _build_at("surface.start_times", SpacelikeSurface, tuple(start_times), cfg.spacing)
    build_a = _build_schedule_factory(opts["schedule_a"], "surface.schedule_a", start, total_time)
    build_b = _build_schedule_factory(opts["schedule_b"], "surface.schedule_b", start, total_time)
    # every schedule of the ladder is built and its moves counted, then each is walked once
    levels, moves = [], 0
    for i, dt in enumerate(dt_values):
        pair = _build_at(f"surface.dt_values[{i}]", lambda: (build_a(dt), build_b(dt)))
        moves += len(pair[0].moves) + len(pair[1].moves)
        if moves > MAX_LADDER_MOVES:
            raise DimensionTooLarge(f"surface.dt_values: the first {i + 1} steps need {moves} "
                                    f"moves, above the {MAX_LADDER_MOVES} move ladder guard")
        levels.append(pair)
    for pair in levels:
        for name, schedule in zip(("schedule_a", "schedule_b"), pair):
            _build_at(f"surface.{name}", schedule.end)  # the walk refuses |v| >= 1
        _build_at("surface.schedule_b", shared_endpoints, *pair)

    initial = _build_initial(opts["initial"], "surface.initial", cfg, base_dir)
    density = legendre_transform(lagr)
    report = integrability_test(initial, density, levels, dt_values,
                                integrator=opts["integrator"], ratio_floor=opts["ratio_floor"])
    _write_report(outdir / "integrability.json", meta, report)


def cmd_feynman(lagr, lattice, opts: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    from .feynman import (AUTO_IDENTITY_HISTORIES, PathIntegralSpec, brute_force_amplitudes,
                          check_enumerable, feynman_vs_schrodinger, history_count, ladder_specs)

    cfg = _build_lattice(lattice)
    pspec = _build_at("feynman.dt", PathIntegralSpec, opts["t_steps"], opts["dt"], opts["kernel"])
    identity_mode = opts["identity_check"]
    if identity_mode == "force":
        check_enumerable(pspec, cfg)  # an oversized history sum is refused first
    # the ladder the run walks, through the step and dense guards
    specs = _build_at("feynman.dt", ladder_specs, pspec, opts["levels"], cfg)
    check_identity = identity_mode == "force" or (
        identity_mode == "auto" and history_count(pspec, cfg) <= AUTO_IDENTITY_HISTORIES)

    initial = _build_initial(opts["initial"], "feynman.initial", cfg, base_dir)
    report, transfer_state = feynman_vs_schrodinger(initial, specs, lagr)
    identity = {"checked": False}
    if check_identity:
        amps = brute_force_amplitudes(initial, pspec, lagr)
        err = float(np.max(np.abs(amps - transfer_state.psi)))
        # roundoff grows with the amplitudes, which the Riemann kernel leaves unnormalized
        scale = max(1.0, float(np.max(np.abs(amps))))
        identity = {"checked": True, "max_abs_err": err, "passes_1e12": err <= 1e-12 * scale}
    report["identity"] = identity
    _require_finite(transfer_state.psi, "amplitudes.csv")
    _write_report(outdir / "comparison.json", meta, report)
    state_to_csv(transfer_state, outdir / "amplitudes.csv", meta)


def cmd_classical(lagr, lattice, opts: dict, outdir: Path, meta: dict, base_dir: Path) -> None:
    from .classical import (BoundaryData, grid_rows, hj_residuals, hj_variations,
                            reparameterization_check, reparameterizations, solve_extremal)

    boundary = _read(opts["boundary"], "classical.boundary", SCHEMA["classical.boundary"])
    dt_c, fd_epsilon, checks = opts["dt_c"], opts["fd_epsilon"], opts["checks"]
    bd = _build_at("classical.boundary", BoundaryData, **boundary)
    # the grid of every solve of the run, checked against the grid guard before any solve
    _build_at("classical.dt_c", grid_rows, bd, dt_c)
    if "reparameterization" in checks:
        for varied, dt in _build_at("classical.checks", reparameterizations, bd, dt_c):
            _build_at("classical.dt_c", grid_rows, varied, dt)
    if "hj_residuals" in checks:
        for pair in _build_at("classical.fd_epsilon", hj_variations, bd, fd_epsilon).values():
            for varied in pair:
                _build_at("classical.fd_epsilon", grid_rows, varied, dt_c)

    sol = solve_extremal(bd, lagr, dt_c)
    payload = {"action": sol.action, "residual": sol.residual, "n_rows": sol.n_rows}
    if "hj_residuals" in checks:
        payload["hj"] = hj_residuals(sol, fd_epsilon)
    if "reparameterization" in checks:
        payload["reparameterization"] = reparameterization_check(sol)
    _write_report(outdir / "residuals.json", meta, payload)
    x = np.broadcast_to(np.arange(bd.n_sites) * bd.spacing, sol.z.shape)
    _write_csv(outdir / "extremal.csv", meta, ("t", "x", "z"),
               np.stack((sol.row_times, x, sol.z), axis=-1).reshape(-1, 3))


# --- entry point -------------------------------------------------------------

def run_config(config: dict, outdir: Path | None, base_dir: Path) -> None:
    """Run ``config`` into ``outdir``, or when it is None into its ``output_dir`` under
    ``base_dir``."""
    if not isinstance(config, dict):
        raise ConfigError("", "config root must be an object")
    present = [name for name in COMMANDS if name in config]
    if len(present) != 1:
        raise ConfigError("", f"exactly one command block required, found {present or 'none'}")
    command = present[0]
    if not isinstance(config[command], dict):
        raise ConfigError(command, "command block must be an object")
    root = _read(config, "", SCHEMA[""], known=(command,))
    if outdir is None:
        if root["output_dir"] is None:
            raise ConfigError("output_dir", "missing (or pass --out)")
        outdir = base_dir / root["output_dir"]
    opts = _read(config[command], command, SCHEMA[command])
    lagr = _build_lagrangian(root["lagrangian"])
    meta = {
        "config_sha256": config_hash(config),
        "version": __version__,
        "command": command,
        "seed": root["seed"],
    }
    # built per call, so a wrapper bound over a cmd_* name is the one that runs
    run = {"legendre": cmd_legendre, "evolve": cmd_evolve, "surface": cmd_surface,
           "feynman": cmd_feynman, "classical": cmd_classical}[command]
    # the commands read no file but initial.path, whose errors _build_initial reports,
    # so an OSError here is an output directory or file that cannot be written.  numpy
    # overflow and invalid values pass quietly: the finiteness checks of the results, not
    # a RuntimeWarning on stderr, decide whether the run failed
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):
            run(lagr, root["lattice"], opts, outdir, meta, base_dir)
        _write_json(outdir / "meta.json", meta)
    except OSError as exc:
        raise ConfigError("output_dir", str(exc)) from exc


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
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, bytes that are not UTF-8, nesting too deep to decode, an
        # integer too long to convert
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2

    try:
        run_config(config, None if args.out is None else Path(args.out), config_path.parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuard as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
