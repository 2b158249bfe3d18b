"""Seeded experiment configs for the four benchmark workloads.

Sizes, step counts, ladders and lattices are fixed per workload.  The seed
moves only values: initial centres and widths, the quartic coupling,
classical boundary data, curved start times, and the order of the sample
configs.  Every seed therefore asks for the same amount of work.

``classical-hj-curved`` is runnable but not a ``BENCHMARK.json`` workload:
it reproduces a known program defect (the Hamilton-Jacobi check fails on
curved boundaries), so it reports ``correct: false`` until that is fixed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path

FREE = "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2"
QUARTIC = "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - lam*z^4"
# refinement ladder of the surface experiments, and the per-site advances of a `moves` round
SURFACE_LADDER = [0.05, 0.025, 0.0125]
CURVED_MOVES = (0.05, 0.04, 0.03)
# start of the exact-integrator `moves` ladder: its pair cache is keyed on float
# slopes, so seeded start times would change how many pair propagators it builds
CURVED_MOVES_START = (0.06, -0.02, -0.04)

WORKLOADS = ("sample-configs", "dense-truth", "matrix-free", "classical-hj")
DEFECT_WORKLOADS = ("classical-hj-curved",)


@dataclass
class Experiment:
    """One `fieldlab run`: a config dict, or a committed config file."""

    name: str
    config: dict
    source: Path | None = None  # committed file run unchanged, else None


def _lattice(n_sites: int, q_points: int, q_extent: float) -> dict:
    return {"n_sites": n_sites, "q_points": q_points, "q_extent": q_extent}


def _gaussian(rng: random.Random, n_sites: int) -> dict:
    return {"kind": "gaussian",
            "centers": [rng.uniform(-0.5, 0.5) for _ in range(n_sites)],
            "widths": [rng.uniform(0.95, 1.05) for _ in range(n_sites)]}


def _quartic(rng: random.Random) -> dict:
    return {"text": QUARTIC, "params": {"lam": rng.uniform(0.095, 0.105)}}


def _curved_times(rng: random.Random, n_sites: int, spread: float) -> list[float]:
    """Per-site times with zero mean, so row counts never depend on the seed."""
    raw = [rng.uniform(-spread, spread) for _ in range(n_sites)]
    mean = sum(raw) / n_sites
    return [t - mean for t in raw]


def _evolve(name, lagr, lattice, method, dt, steps, log_every, initial, seed):
    return Experiment(name, {
        "lagrangian": lagr, "lattice": lattice, "seed": seed,
        "evolve": {"method": method, "dt": dt, "steps": steps,
                   "log_every": log_every, "initial": initial}})


def _surface(name, lagr, lattice, integrator, total_time, dt_values, initial,
             schedule_a, schedule_b, seed, start_times=None):
    block = {"total_time": total_time, "dt_values": dt_values,
             "integrator": integrator, "ratio_floor": 1.8, "initial": initial,
             "schedule_a": schedule_a, "schedule_b": schedule_b}
    if start_times is not None:
        block["start_times"] = start_times
    return Experiment(name, {"lagrangian": lagr, "lattice": lattice, "seed": seed,
                             "surface": block})


def _feynman(name, lagr, lattice, dt, t_steps, levels, identity, initial, seed):
    return Experiment(name, {
        "lagrangian": lagr, "lattice": lattice, "seed": seed,
        "feynman": {"kernel": "fresnel_exact", "dt": dt, "t_steps": t_steps,
                    "levels": levels, "identity_check": identity, "initial": initial}})


def _moves(order: list[int], rounds: int) -> list[list]:
    return [[j, CURVED_MOVES[j]] for _ in range(rounds) for j in order]


def sample_configs(rng: random.Random, root: Path) -> list[Experiment]:
    paths = sorted((root / "configs").glob("*.json"))
    rng.shuffle(paths)
    return [Experiment(p.stem, json.loads(p.read_text()), source=p) for p in paths]


def dense_truth(rng: random.Random, seed: int, tiny: bool) -> list[Experiment]:
    n_flat = 1 if tiny else 2
    flat = _lattice(n_flat, 32, 10.0)
    surface = _lattice(3, 8, 5.0) if tiny else _lattice(3, 16, 8.0)
    ladder = SURFACE_LADDER[:2] if tiny else SURFACE_LADDER
    return [
        _evolve("evolve-exact", {"text": FREE}, flat, "exact",
                0.01, 100, 10, _gaussian(rng, n_flat), seed),
        _feynman("feynman-refine", _quartic(rng), flat, 0.05, 3,
                 2 if tiny else 4, "skip", _gaussian(rng, n_flat), seed),
        _feynman("feynman-identity", _quartic(rng), _lattice(1, 8, 6.0), 0.05,
                 1 if tiny else 3, 3, "force", _gaussian(rng, 1), seed),
        _surface("surface-flat-sweep", {"text": FREE}, surface, "exact", 0.2, ladder,
                 {"kind": "ground_state", "mass": 1.0,
                  "centers": [rng.uniform(-0.3, 0.3) for _ in range(3)]},
                 {"kind": "sweep", "direction": "left_right"},
                 {"kind": "sweep", "direction": "right_left"}, seed),
        _surface("surface-curved-moves", {"text": FREE}, surface, "exact", 0.1, ladder,
                 _gaussian(rng, 3),
                 {"kind": "moves", "moves": _moves([0, 1, 2], 2)},
                 {"kind": "moves", "moves": _moves([2, 1, 0], 2)}, seed,
                 start_times=list(CURVED_MOVES_START)),
    ]


def matrix_free(rng: random.Random, seed: int, tiny: bool) -> list[Experiment]:
    lattice = _lattice(3, 8, 5.0) if tiny else _lattice(3, 32, 10.0)
    return [
        _evolve("strang-quartic", _quartic(rng), lattice, "strang",
                0.002, 50 if tiny else 500, 50, _gaussian(rng, 3), seed),
        _evolve("cn-quartic", _quartic(rng), lattice, "crank_nicolson",
                0.01, 10 if tiny else 100, 10, _gaussian(rng, 3), seed),
        _surface("surface-cn-curved-sweep", {"text": FREE}, lattice, "crank_nicolson",
                 0.1, SURFACE_LADDER, _gaussian(rng, 3),
                 {"kind": "sweep", "direction": "left_right"},
                 {"kind": "sweep", "direction": "right_left"}, seed,
                 start_times=_curved_times(rng, 3, 0.1)),
    ]


def _boundary(rng: random.Random, curved: bool) -> dict:
    """Boundary data on which the field crosses zero at every site.

    The Hamilton-Jacobi check compares dS/dz with a*p as a relative error,
    so a boundary momentum near zero makes it fail on a second-order
    discretisation error of ~1e-7.  Going from one sign to the other keeps
    every boundary momentum away from zero.  Magnitudes up to 0.15 keep the
    quartic solves at two Newton steps, so every seed does the same work.
    """
    n = 3
    t0 = _curved_times(rng, n, 0.1) if curved else [0.0] * n
    t1 = [1.0 + t for t in _curved_times(rng, n, 0.15)] if curved else [1.0] * n
    sign = rng.choice((-1.0, 1.0))
    return {"t0": t0, "t1": t1,
            "z0": [-sign * rng.uniform(0.08, 0.15) for _ in range(n)],
            "z1": [sign * rng.uniform(0.08, 0.15) for _ in range(n)]}


def classical_hj(rng: random.Random, seed: int, tiny: bool, curved: bool) -> list[Experiment]:
    """Two boundary pairs of one shape, each with the free and the quartic Lagrangian."""
    shape = "curved" if curved else "flat"
    out = []
    for pair in ("a", "b"):
        boundary = _boundary(rng, curved)
        for kind, lagr in (("free", {"text": FREE}), ("quartic", _quartic(rng))):
            out.append(Experiment(f"classical-{shape}-{pair}-{kind}", {
                "lagrangian": lagr, "lattice": _lattice(3, 16, 8.0), "seed": seed,
                "classical": {"boundary": boundary, "dt_c": 5e-3 if tiny else 1e-3,
                              "fd_epsilon": 1e-4,
                              "checks": ["hj_residuals", "reparameterization"]}}))
    return out


def experiments(workload: str, seed: int, root: Path, tiny: bool = False) -> list[Experiment]:
    """The workload's experiments for this seed, validated before any run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sample-configs":
        exps = sample_configs(rng, root)
    elif workload == "dense-truth":
        exps = dense_truth(rng, seed, tiny)
    elif workload == "matrix-free":
        exps = matrix_free(rng, seed, tiny)
    elif workload in ("classical-hj", "classical-hj-curved"):
        exps = classical_hj(rng, seed, tiny, curved=workload.endswith("curved"))
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS + DEFECT_WORKLOADS}")
    for exp in exps:
        validate(exp.config)
    return exps


def command(config: dict) -> str:
    return next(k for k in ("legendre", "evolve", "surface", "feynman", "classical")
                if k in config)


def _check_spacelike(times, spacing, what):
    n = len(times)
    for j in range(n):
        v = (times[(j + 1) % n] - times[j]) / spacing
        if not abs(v) < 1.0:
            raise ValueError(f"{what}: link slope {v} violates |v| < 1")


def _check_initial(initial: dict, lattice: dict):
    dz = lattice["q_extent"] / lattice["q_points"]
    if initial["kind"] == "gaussian":
        widths = initial["widths"]
    else:  # ground_state: principal widths sqrt(hbar / omega_k)
        n, mass = lattice["n_sites"], initial["mass"]
        widths = [(mass ** 2 + 4.0 * math.sin(math.pi * k / n) ** 2) ** -0.25
                  for k in range(n)]
    if min(widths) < dz:
        raise ValueError(f"initial width {min(widths)} below one grid cell {dz}")


def validate(config: dict) -> None:
    """Reject a generated config that would make the CLI exit with a config error."""
    cmd = command(config)
    block = config[cmd]
    spacing = config.get("lattice", {}).get("spacing", 1.0)
    if "initial" in block:
        _check_initial(block["initial"], config["lattice"])
    if "start_times" in block:
        _check_spacelike(block["start_times"], spacing, "surface.start_times")
    if cmd == "classical":
        bd = block["boundary"]
        _check_spacelike(bd["t0"], spacing, "boundary.t0")
        _check_spacelike(bd["t1"], spacing, "boundary.t1")
        if any(b <= a for a, b in zip(bd["t0"], bd["t1"])):
            raise ValueError("boundary surfaces intersect")


def _site_slope(times: list[Fraction], j: int, spacing: Fraction) -> Fraction:
    """Mean of the two link slopes at site j (periodic), as the surface module takes it."""
    n = len(times)
    return (times[(j + 1) % n] - times[(j - 1) % n]) / (2 * spacing)


def _schedule_moves(schedule: dict, n_sites: int, total_time: float, dt: float):
    """The (site, step) moves the CLI builds for one refinement level, as floats."""
    if schedule["kind"] == "sweep":
        order = list(range(n_sites))
        if schedule.get("direction", "left_right") == "right_left":
            order.reverse()
        return [(j, dt) for _ in range(int(round(total_time / dt))) for j in order]
    moves = schedule["moves"]
    base = max(abs(step) for _, step in moves)
    split = max(1, int(round(base / dt)))
    return [(j, step / split) for j, step in moves for _ in range(split)]


def distinct_site_slopes(config: dict) -> int:
    """Distinct site slopes met by the moves of a surface experiment, in exact arithmetic.

    One evolver serves every level and both schedules, so this is the number
    of pair propagators a cache keyed on the true slope would build.
    """
    block = config["surface"]
    n = config["lattice"]["n_sites"]
    spacing = Fraction(config["lattice"].get("spacing", 1.0))
    start = [Fraction(t) for t in block.get("start_times", [0.0] * n)]
    slopes = set()
    for dt in block["dt_values"]:
        for name in ("schedule_a", "schedule_b"):
            times = list(start)
            for j, step in _schedule_moves(block[name], n, block["total_time"], dt):
                if step != 0.0:
                    slopes.add(_site_slope(times, j, spacing))
                times[j] += Fraction(step)
    return len(slopes)


SEEDED_KEYS = {"centers", "widths", "start_times", "t0", "t1", "z0", "z1", "params"}


def structure(config: dict) -> dict:
    """The config with every seeded value replaced by its length: equal for all seeds."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: (len(v) if k in SEEDED_KEYS else strip(v)) for k, v in obj.items()}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    lattice = config.get("lattice", {})
    out = strip({k: v for k, v in config.items() if k != "seed"})
    out["dim"] = lattice.get("q_points", 0) ** lattice.get("n_sites", 0)
    return out
