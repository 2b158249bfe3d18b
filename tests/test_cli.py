"""Config-driven commands: outputs, validation, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fieldlab.classical
import fieldlab.cli
import fieldlab.evolve
import fieldlab.feynman
import fieldlab.operators
import fieldlab.surface
from fieldlab.cli import SCHEMA, main
from fieldlab.errors import ConfigError
from fieldlab.lagrangian import parse_lagrangian
from fieldlab.lattice import (
    ROUNDOFF_FLOOR,
    LatticeConfig,
    WaveFunctional,
    free_ground_state_covariance,
    init_wavefunctional,
    load_state,
    save_state,
    spacelike,
)
from fieldlab.operators import LatticeHamiltonian

FREE_TEXT = "0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def base_config(command_block):
    cfg = {
        "lagrangian": {"text": FREE_TEXT, "params": {"m": 1.0}},
        "lattice": {"n_sites": 1, "q_points": 16, "q_extent": 8.0},
        "seed": 11,
        "output_dir": "out",
    }
    cfg.update(command_block)
    return cfg


def run(tmp_path, payload, out="out"):
    path = write_config(tmp_path, payload)
    return main(["run", str(path), "--out", str(tmp_path / out)])


# --- legendre ----------------------------------------------------------------

def test_legendre_golden_free(tmp_path, capsys):
    code = run(tmp_path, base_config({"legendre": {}}))
    assert code == 0
    text = (tmp_path / "out" / "hamiltonian.txt").read_text().strip()
    assert text == "0.5*p^2 + 0.5*zx^2 + 0.5*z^2"
    assert text in capsys.readouterr().out


def test_legendre_golden_quartic(tmp_path):
    cfg = base_config({"legendre": {}})
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    assert run(tmp_path, cfg) == 0
    text = (tmp_path / "out" / "hamiltonian.txt").read_text()
    assert "+ 0.1*z^4" in text


def test_legendre_malformed_text(tmp_path, capsys):
    cfg = base_config({"legendre": {}})
    cfg["lagrangian"]["text"] = "0.5*zt^2 - 0.5*q^2"
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "lagrangian.text" in err and "position" in err


@pytest.mark.parametrize("text,slope", [
    ("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2", -1e200),
    ("0.5*zt^2 - 0.5*zx^2 - 0.5*z^2", 1e155),
    ("0.5*zt^2 + 0.5*zx^2 - 0.5*z^2", -1e200),
])
def test_legendre_slope_with_no_finite_square(tmp_path, capsys, text, slope):
    """A slope whose square overflows is a typed config error, not Python's overflow text."""
    cfg = {"lagrangian": {"text": text}, "legendre": {"slope": slope}}
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: legendre.slope: ")
    assert "Numerical result out of range" not in err


# --- evolve --------------------------------------------------------------------

def evolve_config(steps, method="strang", initial=None):
    block = {
        "evolve": {
            "method": method,
            "dt": 1e-2,
            "steps": steps,
            "log_every": 5,
            "initial": initial or {"kind": "ground_state", "mass": 1.0},
        }
    }
    return base_config(block)


def test_evolve_zero_steps_round_trips_file(tmp_path):
    cfg = evolve_config(20)
    assert run(tmp_path, cfg, out="first") == 0
    first_bytes = (tmp_path / "first" / "final_state.bin").read_bytes()

    cfg2 = evolve_config(0, initial={"kind": "file", "path": "first/final_state.bin"})
    assert run(tmp_path, cfg2, out="second") == 0
    second_bytes = (tmp_path / "second" / "final_state.bin").read_bytes()
    assert first_bytes == second_bytes


@pytest.mark.parametrize("build,stamped", [
    (lambda: evolve_config(5), {"trajectory.csv"}),
    (lambda: surface_config(*SWEEPS), {"integrability.json"}),
    (lambda: feynman_config(), {"comparison.json", "amplitudes.csv"}),
    (lambda: classical_config({"t0": [0.0], "t1": [1.0], "z0": [0.3], "z1": [-0.4]}),
     {"residuals.json", "extremal.csv"}),
], ids=["evolve", "surface", "feynman", "classical"])
def test_every_output_carries_the_run_stamp(tmp_path, build, stamped):
    """Each CSV opens with the config hash and version line; each report holds the hash as
    ``spec_hash`` and the run's meta as meta.json holds it."""
    cfg = build()
    assert run(tmp_path, cfg) == 0
    out = tmp_path / "out"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_sha256"] == fieldlab.cli.config_hash(cfg)
    seen = set()
    for path in out.iterdir():
        if path.suffix == ".csv":
            assert path.read_text().splitlines()[0] == (
                f"# config_sha256={meta['config_sha256']} version={meta['version']}")
            seen.add(path.name)
        elif path.suffix == ".json" and path.name != "meta.json":
            report = json.loads(path.read_text())
            assert report["spec_hash"] == meta["config_sha256"] and report["meta"] == meta
            seen.add(path.name)
    assert seen == stamped


STAMP_CASES = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
STAMP_CASES |= {
    "non-ascii": {"lagrangian": {"text": "0.5*zt^2 - λ*z^4", "params": {"λ": 0.1}},
                  "output_dir": "résultats/☃", "legendre": {}},
    "float-edges": {"lagrangian": {"text": FREE_TEXT, "params": {"m": -0.0, "lam": 1e308}},
                    "legendre": {"slope": 1e-320}},
    "nested-moves": {"surface": {"schedule_a": {"kind": "moves", "moves": [[0, 0.05]]},
                                 "schedule_b": {"kind": "moves",
                                                "moves": [[1, -0.0], [[0, 1e-320], [2, 1e308]]]}}},
}


@pytest.mark.parametrize("cfg", STAMP_CASES.values(), ids=list(STAMP_CASES))
def test_config_hash_is_the_sha256_of_canonical_json(cfg):
    """The stamp is hashlib's SHA-256 of the sorted, compact JSON, whichever module computes it."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert fieldlab.cli.config_hash(cfg) == hashlib.sha256(canon.encode()).hexdigest()


def test_evolve_trajectory_columns(tmp_path):
    assert run(tmp_path, evolve_config(10)) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "t,norm,energy,z_mean_0,z2_mean_0"
    assert len(lines) == 2 + 1 + 2  # header comment, header, t=0 plus two logs
    state = load_state(tmp_path / "out" / "final_state.bin")
    assert state.cfg.q_points == 16


def test_evolve_exact_method_matches_strang(tmp_path):
    assert run(tmp_path, evolve_config(10, "strang"), out="strang") == 0
    assert run(tmp_path, evolve_config(10, "exact"), out="exact") == 0
    a = load_state(tmp_path / "strang" / "final_state.bin")
    b = load_state(tmp_path / "exact" / "final_state.bin")
    assert np.max(np.abs(a.psi - b.psi)) < 1e-4


@pytest.mark.parametrize("steps,log_every", [(10, 5), (10, 3), (1, 5), (0, 5)])
def test_evolve_exact_propagates_once_per_logged_row(tmp_path, monkeypatch, steps, log_every):
    """Each logged row after t = 0 takes one propagation, the final state included."""
    calls = []
    propagate = fieldlab.evolve.ExactPropagator.propagate
    monkeypatch.setattr(fieldlab.evolve.ExactPropagator, "propagate",
                        lambda self, state, t: calls.append(t) or propagate(self, state, t))
    cfg = evolve_config(steps, "exact")
    cfg["evolve"]["log_every"] = log_every
    assert run(tmp_path, cfg) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    times = [float(line.split(",")[0]) for line in lines[3:]]  # after the t = 0 row
    assert len(calls) == len(times) == -(-steps // log_every)
    assert calls == times


def test_evolve_exact_zero_steps_skips_the_dense_guard(tmp_path):
    """No step means no propagator, so a lattice past the dense guard still runs."""
    cfg = evolve_config(0, "exact")
    cfg["lattice"] = {"n_sites": 2, "q_points": 128, "q_extent": 8.0}
    assert run(tmp_path, cfg) == 0
    assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("method", ["exact", "strang", "crank_nicolson"])
def test_evolve_log_every_changes_no_number(tmp_path, method):
    """log_every picks rows only: 10 steps logged every 1, 3 or 10 steps give the same
    final_state.bin bytes, and the same row at every time two of the runs log."""
    finals, tables = [], []
    for log_every in (1, 3, 10):
        cfg = evolve_config(10, method, initial={"kind": "gaussian", "centers": [0.5, -0.3],
                                                 "widths": [1.0, 0.8]})
        cfg["lattice"] = {"n_sites": 2, "q_points": 16, "q_extent": 8.0}
        cfg["evolve"]["log_every"] = log_every
        out = tmp_path / f"every_{log_every}"
        assert run(tmp_path, cfg, out=out.name) == 0
        finals.append((out / "final_state.bin").read_bytes())
        lines = (out / "trajectory.csv").read_text().splitlines()[2:]
        tables.append({line.split(",")[0]: line for line in lines})
    assert finals[0] == finals[1] == finals[2]
    assert [len(table) for table in tables] == [11, 5, 2]
    for table in tables[1:]:
        assert all(tables[0][t] == row for t, row in table.items())


def test_evolve_crank_nicolson_overflowing_step_is_numerical_failure(tmp_path, capsys):
    """A dt of 1e200 overflows the Cayley system's norms: exit 3, not an unchanged trajectory."""
    cfg = evolve_config(3, "crank_nicolson")
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2", "params": {}}
    cfg["evolve"]["dt"] = 1e200
    with np.errstate(over="ignore"):
        assert run(tmp_path, cfg) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_evolve_crank_nicolson_overflow_prints_only_its_message(tmp_path, capsys):
    """The overflowing right-hand-side norm is found quietly: with warnings as errors the
    run still exits 3, and stderr holds the typed message alone, on one line."""
    cfg = evolve_config(3, "crank_nicolson")
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2", "params": {}}
    cfg["evolve"]["dt"] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, cfg) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: crank-nicolson right-hand side norm^2 is inf"]


def test_evolve_strang_builds_its_factors_once(tmp_path, monkeypatch):
    """Six steps logged every two take one build of the Strang factors."""
    builds = []
    trotter_factors = LatticeHamiltonian.trotter_factors
    monkeypatch.setattr(LatticeHamiltonian, "trotter_factors",
                        lambda self, dt: builds.append(dt) or trotter_factors(self, dt))
    cfg = evolve_config(6)
    cfg["evolve"]["log_every"] = 2
    assert run(tmp_path, cfg) == 0
    assert builds == [1e-2]
    assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 6


@pytest.mark.parametrize("lattice,initial,code,needle", [
    ({"hbar": 1e300}, None, 3,
     "numerical failure: (lattice.hbar / lattice.spacing)^2 = (1e+300 / 1)^2 overflows"),
    ({"derivative": "fd", "q_extent": 1e300}, {"kind": "gaussian", "centers": [0.0],
                                              "widths": [1e299]}, 3,
     "numerical failure: the fd stencil's dz^2 = (6.25e+298)^2 overflows"),
    ({}, {"kind": "ground_state", "mass": 1e200}, 2,
     "config error: evolve.initial.mass: mass^2 = (1e+200)^2 overflows"),
    ({"n_sites": 2, "q_extent": 1e300}, {"kind": "gaussian", "centers": [0.0, 0.0],
                                         "widths": [1e300, 1e300]}, 2,
     "config error: evolve.initial.widths: the grid measure dz^N = (6.25e+298)^2 overflows"),
], ids=["momentum-multiplier", "fd-momentum-grid", "ground-state-mass", "inner-measure"])
def test_overflowing_squares_and_powers_name_their_quantity(tmp_path, capsys, lattice, initial,
                                                            code, needle):
    """A float power that overflows is a typed error naming what overflowed, with the exit
    code the run had before, not Python's bare '(34, Numerical result out of range)'."""
    cfg = evolve_config(2, initial=initial)
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2", "params": {}}
    cfg["lattice"] = {"n_sites": 1, "q_points": 16, "q_extent": 8.0, **lattice}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the huge widths' own RuntimeWarnings and UserWarnings
        assert run(tmp_path, cfg) == code
    err = capsys.readouterr().err
    assert needle in err and "out of range" not in err


def test_evolve_unknown_method(tmp_path, capsys):
    assert run(tmp_path, evolve_config(5, "leapfrog")) == 2
    assert "evolve.method" in capsys.readouterr().err


# --- surface --------------------------------------------------------------------

def surface_config(sched_a, sched_b, dt_values=(0.05, 0.025), n_sites=3):
    cfg = base_config({
        "surface": {
            "total_time": 0.1,
            "dt_values": list(dt_values),
            "integrator": "exact",
            "initial": {"kind": "ground_state", "mass": 1.0},
            "schedule_a": sched_a,
            "schedule_b": sched_b,
        }
    })
    cfg["lattice"] = {"n_sites": n_sites, "q_points": 8, "q_extent": 5.0}
    return cfg


def test_surface_identical_schedules(tmp_path):
    sweep = {"kind": "sweep", "direction": "left_right"}
    assert run(tmp_path, surface_config(sweep, dict(sweep))) == 0
    report = json.loads((tmp_path / "out" / "integrability.json").read_text())
    assert report["discrepancies"] == [0.0, 0.0]
    assert report["ratios"] == [None]  # 0/0 is reported as null, not as the string "inf"
    assert report["degenerate"] is True
    assert report["spec_hash"]


def test_surface_sweep_pair(tmp_path):
    assert run(tmp_path, surface_config(
        {"kind": "sweep", "direction": "left_right"},
        {"kind": "sweep", "direction": "right_left"})) == 0
    report = json.loads((tmp_path / "out" / "integrability.json").read_text())
    assert np.isfinite(report["fitted_order"])
    assert len(report["discrepancies"]) == 2
    assert report["flags"] == []


def test_surface_non_spacelike_schedule(tmp_path, capsys):
    cfg = surface_config(
        {"kind": "moves", "moves": [[0, 5.0]]},
        {"kind": "sweep", "direction": "left_right"})
    assert run(tmp_path, cfg) == 2
    assert "schedule_a" in capsys.readouterr().err


SWEEPS = ({"kind": "sweep", "direction": "left_right"},
          {"kind": "sweep", "direction": "right_left"})
MOVES = ({"kind": "moves", "moves": [[0, 0.05], [1, 0.05], [2, 0.05]]},
         {"kind": "moves", "moves": [[2, 0.05], [1, 0.05], [0, 0.05]]})


@pytest.mark.parametrize("schedules", [SWEEPS, MOVES], ids=["sweep", "moves"])
@pytest.mark.parametrize("dt_values,index,needle", [
    ([5e-324], 0, "too small"),
    ([0.05, 5e-324], 1, "too small"),
])
def test_surface_step_errors_are_config_errors(tmp_path, capsys, schedules, dt_values,
                                               index, needle):
    """Every step is counted before the first solve; an overflowing count exits 2 at its entry."""
    assert run(tmp_path, surface_config(*schedules, dt_values=dt_values)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: surface.dt_values[{index}]: ") and needle in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "integrability.json").exists()


@pytest.mark.parametrize("total_time", [-0.1, 0.0, -0.0])
def test_surface_sweep_refuses_non_positive_total_time(tmp_path, capsys, total_time):
    """A sweep runs until total_time, so a non-positive one is refused there before any
    ladder step is built; moves schedules never read it."""
    cfg = surface_config(*SWEEPS)
    cfg["surface"]["total_time"] = total_time
    assert run(tmp_path, cfg) == 2
    assert capsys.readouterr().err == "config error: surface.total_time: must be positive\n"
    cfg = surface_config(*MOVES, dt_values=[0.05])
    cfg["surface"]["total_time"] = total_time
    assert run(tmp_path, cfg) == 0


def test_surface_non_multiple_later_step(tmp_path, capsys):
    assert run(tmp_path, surface_config(*SWEEPS, dt_values=[0.05, 0.03])) == 2
    assert capsys.readouterr().err.startswith("config error: surface.dt_values[1]: "
                                              "total_time 0.1 is not a multiple of dt 0.03")


def test_surface_schedules_ending_apart_are_config_errors(tmp_path, capsys):
    """A moves list that stops short of the sweep's end surface exits 2 before any solve."""
    cfg = surface_config({"kind": "moves", "moves": [[0, 0.05]]}, SWEEPS[1], dt_values=[0.05])
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: surface.schedule_b: schedules end on different surfaces")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "integrability.json").exists()


@pytest.mark.parametrize("schedules", [SWEEPS, MOVES], ids=["sweep", "moves"])
def test_surface_tiny_step_hits_move_guard(tmp_path, capsys, schedules):
    start = time.perf_counter()
    assert run(tmp_path, surface_config(*schedules, dt_values=[0.05, 1e-9])) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and "move schedule guard" in err
    assert not (tmp_path / "out" / "integrability.json").exists()


def test_surface_rounded_refinement_hits_move_guard(tmp_path, capsys):
    """Moves of 0.001 at dt 0.000625 split in 2, so 6,000 listed moves build 12,000: exit 4."""
    forward = [[j % 3, 0.001] for j in range(6000)]
    schedules = ({"kind": "moves", "moves": forward},
                 {"kind": "moves", "moves": forward[::-1]})
    assert run(tmp_path, surface_config(*schedules, dt_values=[0.000625])) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and "1.2e+04 moves" in err
    assert not (tmp_path / "out" / "integrability.json").exists()


def test_surface_repeated_guard_size_step_hits_ladder_guard(tmp_path, capsys, monkeypatch):
    """Six levels of 2 x 9,999 moves exceed the 100,000-move ladder guard: exit 4, no walk."""
    calls = []

    def counting(slopes, *args):
        calls.append(slopes)
        return spacelike(slopes, *args)

    monkeypatch.setattr(fieldlab.surface, "spacelike", counting)
    step = 0.05 / 3333  # each 0.05 advance splits into 3,333 parts: 9,999 moves a schedule
    start = time.perf_counter()
    assert run(tmp_path, surface_config(*MOVES, dt_values=[step] * 6)) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource guard: surface.dt_values: the first 6 steps need 119988 "
                          "moves, above the 100000 move ladder guard")
    assert len(calls) == 1  # the start surface; no schedule was walked
    assert not (tmp_path / "out" / "integrability.json").exists()


@pytest.mark.parametrize("guard,code", [(36, 0), (35, 4)])
def test_surface_ladder_guard_counts_both_schedules_of_every_level(tmp_path, monkeypatch,
                                                                   guard, code):
    """Sweeps of 6 and 12 moves, two schedules each: 36 moves in all."""
    monkeypatch.setattr(fieldlab.surface, "MAX_LADDER_MOVES", guard)
    assert run(tmp_path, surface_config(*SWEEPS, dt_values=[0.05, 0.025])) == code


def test_surface_advances_that_agree_in_decimal_share_an_end(tmp_path):
    """0.1 + 0.2 and 0.3 reach the same surface: times are exact decimals, with no tolerance."""
    schedules = ({"kind": "moves", "moves": [[0, 0.1], [0, 0.2]]},
                 {"kind": "moves", "moves": [[0, 0.3]]})
    assert run(tmp_path, surface_config(*schedules, dt_values=[0.1, 0.05])) == 0


def test_surface_walks_each_schedule_once_per_level(tmp_path, monkeypatch):
    """Pre-check, endpoint check and solve share one walk: one validation per surface built."""
    calls = []

    def counting(slopes, *args):
        calls.append(slopes)
        return spacelike(slopes, *args)

    monkeypatch.setattr(fieldlab.surface, "spacelike", counting)
    assert run(tmp_path, surface_config(*SWEEPS, dt_values=[0.05, 0.025])) == 0
    # the start surface, then 2 schedules x (6 moves at dt 0.05 + 12 moves at dt 0.025)
    assert len(calls) == 1 + 2 * (6 + 12)


def test_surface_repeated_ladder_fits_no_order(tmp_path):
    """Two equal steps leave no slope to fit: fitted_order 0.0, no RankWarning, ratio flagged."""
    payload = json.loads((CONFIGS / "surface_sweeps.json").read_text())
    payload["surface"]["dt_values"] = [0.05, 0.05]
    path = write_config(tmp_path, payload)
    src = str(Path(fieldlab.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "fieldlab", "run", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "RankWarning" not in done.stderr
    report = json.loads((tmp_path / "out" / "integrability.json").read_text())
    assert report["fitted_order"] == 0.0
    assert report["ratios"] == [1.0]
    assert report["flags"] == ["ratio 1.000 between dt=0.05 and dt=0.05 below floor 1.8"]


# --- feynman ---------------------------------------------------------------------

def feynman_config(t_steps=1, dt=0.1, kernel="fresnel_exact", identity="auto", q=8):
    cfg = base_config({
        "feynman": {
            "kernel": kernel,
            "dt": dt,
            "t_steps": t_steps,
            "levels": 2,
            "identity_check": identity,
            "initial": {"kind": "ground_state", "mass": 1.0},
        }
    })
    cfg["lattice"] = {"n_sites": 1, "q_points": q, "q_extent": 6.0}
    return cfg


def test_feynman_zero_time(tmp_path):
    assert run(tmp_path, feynman_config(t_steps=0, dt=0.0)) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert report["distances"] == [0.0, 0.0]


def test_feynman_identity_flag(tmp_path):
    assert run(tmp_path, feynman_config()) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert report["identity"]["checked"] is True
    assert report["identity"]["passes_1e12"] is True
    amps = (tmp_path / "out" / "amplitudes.csv").read_text().splitlines()
    assert amps[1] == "index,re,im"
    assert len(amps) == 2 + 8
    for line in amps[2:]:  # plain float reprs, no numpy scalar wrapper
        _, re_part, im_part = line.split(",")
        assert [repr(float(re_part)), repr(float(im_part))] == [re_part, im_part]


def test_feynman_identity_is_judged_against_the_amplitudes_scale(tmp_path):
    """The Riemann kernel's unnormalized amplitudes reach 83 here; the history sum and the
    transfer steps agree to roundoff at that scale, about 1e-12 absolute."""
    cfg = feynman_config(dt=0.05, kernel="lagrangian_riemann", identity="force")
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    cfg["lattice"]["n_sites"] = 2
    cfg["feynman"]["initial"] = {"kind": "gaussian", "centers": [0.0, 0.0], "widths": [1.0, 1.0]}
    assert run(tmp_path, cfg) == 0
    identity = json.loads((tmp_path / "out" / "comparison.json").read_text())["identity"]
    rows = np.loadtxt(tmp_path / "out" / "amplitudes.csv", delimiter=",", skiprows=2)
    scale = np.abs(rows[:, 1] + 1j * rows[:, 2]).max()
    assert 80.0 < scale < 90.0
    assert 1e-12 < identity["max_abs_err"] <= 1e-12 * scale
    assert identity["passes_1e12"] is True


def test_feynman_level_zero_is_the_configured_run(tmp_path, monkeypatch):
    """The ladder starts at the configured step, not at (t_steps + 1) * dt / (t_steps + 1),
    and amplitudes.csv holds level 0's transfer state, from the ladder's own run."""
    built = []

    class Recorded(fieldlab.feynman.TransferOperator):
        def __init__(self, pspec, *args):
            built.append(pspec)
            super().__init__(pspec, *args)

    monkeypatch.setattr(fieldlab.feynman, "TransferOperator", Recorded)
    assert run(tmp_path, feynman_config(t_steps=2, dt=0.1)) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert report["dt_values"] == [0.1, 0.05]
    pspec = fieldlab.feynman.PathIntegralSpec(2, 0.1)
    assert report["total_time"] == pspec.total_time
    # the two ladder levels, then the history sum's step tables
    assert built == [pspec, fieldlab.feynman.PathIntegralSpec(5, 0.05), pspec]

    cfg = LatticeConfig(1, 1.0, 8, 6.0)
    state = init_wavefunctional(free_ground_state_covariance(cfg, 1.0), cfg)
    level0 = fieldlab.feynman.TransferOperator(pspec, parse_lagrangian(FREE_TEXT, {"m": 1.0}),
                                               cfg).evolve(state)
    rows = (tmp_path / "out" / "amplitudes.csv").read_text().splitlines()[2:]
    amps = [complex(float(re_part), float(im_part))
            for _, re_part, im_part in (row.split(",") for row in rows)]
    assert amps == level0.psi.ravel().tolist()


@pytest.mark.parametrize("build,block,key", [
    (lambda: evolve_config(5), "evolve", "steps"),
    (lambda: feynman_config(), "feynman", "t_steps"),
    (lambda: feynman_config(), "feynman", "levels"),
], ids=["evolve.steps", "feynman.t_steps", "feynman.levels"])
def test_step_and_level_counts_hit_step_guard(tmp_path, capsys, build, block, key):
    """Counts up to 2**63 pass the schema; the step guard stops them before any work."""
    cfg = build()
    cfg[block][key] = 2 ** 62
    start = time.perf_counter()
    assert run(tmp_path, cfg) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and "100000 step guard" in err
    assert not (tmp_path / "out" / "meta.json").exists()


def test_feynman_levels_at_the_step_guard_run(tmp_path, monkeypatch):
    """The finest level of 2 kernel steps over 3 levels takes 8 steps: 8 passes, 7 does not."""
    monkeypatch.setattr(fieldlab.feynman, "MAX_STEPS", 8)
    cfg = feynman_config(t_steps=1)
    cfg["feynman"]["levels"] = 3
    assert run(tmp_path, cfg) == 0
    monkeypatch.setattr(fieldlab.feynman, "MAX_STEPS", 7)
    assert run(tmp_path, cfg, out="second") == 4


@pytest.mark.parametrize("kernel,flagged", [("fresnel_exact", []),
                                            ("lagrangian_riemann", [1, 2])])
def test_feynman_flags_levels_whose_distance_grows(tmp_path, kernel, flagged):
    """At Q=64 the Riemann ladder diverges (66.5, 5.6e4, 3.8e12); the exact kernel converges."""
    cfg = json.loads((CONFIGS / "feynman_quartic.json").read_text())
    cfg["feynman"]["kernel"] = kernel
    assert run(tmp_path, cfg) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    grew = [i for i in (1, 2) if report["distances"][i] > report["distances"][i - 1]]
    assert grew == flagged
    assert [int(flag.split(":")[0].split()[1]) for flag in report["flags"]] == flagged


def test_feynman_roundoff_ladder_is_degenerate(tmp_path):
    """The fresnel_exact step is exact for 0.5*zt^2: four distances of 5.6e-15 to 6.2e-15 are
    roundoff, so the ladder is degenerate and its growth is not flagged."""
    cfg = json.loads((CONFIGS / "feynman_quartic.json").read_text())
    cfg["lagrangian"] = {"text": "0.5*zt^2", "params": {}}
    cfg["feynman"]["levels"] = 4
    assert run(tmp_path, cfg) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert max(report["distances"]) <= ROUNDOFF_FLOOR
    assert report["flags"] == []
    assert report["fitted_order"] == 0.0


def test_feynman_oversized_enumeration(tmp_path, capsys):
    cfg = feynman_config(t_steps=5, identity="force", q=64)
    assert run(tmp_path, cfg) == 4
    assert "resource guard" in capsys.readouterr().err


@pytest.mark.parametrize("t_steps,shown", [(3, "281474976710656"), (2 ** 62, "64^")],
                         ids=["n2-q64-t3", "past-the-step-guard"])
def test_feynman_forced_identity_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                         t_steps, shown):
    """An oversized forced history sum exits 4 before the reference evolution starts."""
    def no_work(*args):
        raise AssertionError("the ladder ran before the enumeration guard")

    monkeypatch.setattr(fieldlab.feynman, "feynman_vs_schrodinger", no_work)
    cfg = feynman_config(t_steps=t_steps, identity="force", q=64)
    cfg["lattice"]["n_sites"] = 2
    assert run(tmp_path, cfg) == 4
    assert capsys.readouterr().err.startswith(f"resource guard: {shown}")
    assert not (tmp_path / "out" / "meta.json").exists()


# --- every guard before the first state ---------------------------------------------

def past_the_dense_guard(cfg):
    cfg["lattice"] = {"n_sites": 2, "q_points": 128, "q_extent": 8.0}  # dimension 16384
    return cfg


def forced_identity_past_the_enumeration_guard():
    cfg = feynman_config(t_steps=3, identity="force", q=64)
    cfg["lattice"]["n_sites"] = 2
    return cfg


def feynman_past_the_step_guard():
    cfg = feynman_config()
    cfg["feynman"]["t_steps"] = 2 ** 62
    return cfg


@pytest.mark.parametrize("build,line", [
    (lambda: past_the_dense_guard(evolve_config(1, "exact")),
     "dimension 16384 exceeds dense guard 4096"),
    (lambda: surface_config(*SWEEPS, dt_values=[0.05, 1e-9]),
     "step 1e-09 needs 3e+08 moves, above the 10000 move schedule guard"),
    (lambda: surface_config(*MOVES, dt_values=[0.05 / 3333] * 6),
     "surface.dt_values: the first 6 steps need 119988 moves, above the 100000 move ladder guard"),
    (forced_identity_past_the_enumeration_guard,
     "281474976710656 histories exceed the enumeration guard 4194304"),
    (lambda: past_the_dense_guard(feynman_config()), "dimension 16384 exceeds dense guard 4096"),
    (feynman_past_the_step_guard,
     "2 levels of 4611686018427387905 kernel steps exceed the 100000 step guard "
     "at the finest level"),
], ids=["evolve-exact-dense", "surface-move", "surface-ladder", "feynman-enumeration",
        "feynman-dense-reference", "feynman-step"])
def test_every_guard_refuses_before_the_first_state(tmp_path, capsys, monkeypatch, build, line):
    """A run that a guard refuses builds neither its initial state nor its operator: exit 4."""
    def no_work(*args, **kwargs):
        raise AssertionError("a state or an operator was built before the guard")

    monkeypatch.setattr(fieldlab.cli, "init_wavefunctional", no_work)
    monkeypatch.setattr(fieldlab.operators, "compile_hamiltonian", no_work)
    assert run(tmp_path, build()) == 4
    assert capsys.readouterr().err == f"resource guard: {line}\n"
    assert not any((tmp_path / "out").iterdir())


# --- classical -------------------------------------------------------------------

def classical_config(boundary, checks=("hj_residuals",), dt_c=1e-2):
    return base_config({
        "classical": {
            "boundary": boundary,
            "dt_c": dt_c,
            "fd_epsilon": 1e-4,
            "checks": list(checks),
        }
    })


def test_classical_zero_boundary(tmp_path):
    cfg = classical_config({"t0": [0.0, 0.0], "t1": [1.0, 1.0],
                            "z0": [0.0, 0.0], "z1": [0.0, 0.0]})
    cfg["lattice"]["n_sites"] = 2
    assert run(tmp_path, cfg) == 0
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert abs(report["action"]) < 1e-12
    assert max(report["hj"]["hj_resid"]) < 1e-10
    assert (tmp_path / "out" / "extremal.csv").exists()


def test_classical_extremal_csv_plain_floats(tmp_path):
    cfg = classical_config({"t0": [0.0], "t1": [1.0], "z0": [0.3], "z1": [-0.4]}, checks=())
    assert run(tmp_path, cfg) == 0
    lines = (tmp_path / "out" / "extremal.csv").read_text().splitlines()
    assert lines[1] == "t,x,z"
    assert lines[2] == "0.0,0.0,0.3"
    for line in lines[2:]:
        assert [repr(float(v)) for v in line.split(",")] == line.split(",")


def test_classical_quartic_extremal_ends_on_the_boundary_value(tmp_path):
    cfg = classical_config({"t0": [0.0], "t1": [1.0], "z0": [0.1], "z1": [-0.3]}, checks=())
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    assert run(tmp_path, cfg) == 0
    lines = (tmp_path / "out" / "extremal.csv").read_text().splitlines()
    assert lines[2] == "0.0,0.0,0.1" and lines[-1] == "1.0,0.0,-0.3"


def test_classical_oscillator_closed_form(tmp_path):
    cfg = classical_config({"t0": [0.0], "t1": [1.0], "z0": [0.3], "z1": [-0.4]},
                           checks=(), dt_c=1e-3)
    assert run(tmp_path, cfg) == 0
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    omega, total = 1.0, 1.0
    closed = omega / (2 * np.sin(omega * total)) * (
        (0.3 ** 2 + 0.4 ** 2) * np.cos(omega * total) - 2 * 0.3 * (-0.4))
    assert abs(report["action"] - closed) < 1e-6


def test_classical_resonant_interval(tmp_path, capsys):
    cfg = classical_config({"t0": [0.0], "t1": [float(np.pi)], "z0": [0.3], "z1": [0.1]},
                           checks=(), dt_c=1e-3)
    assert run(tmp_path, cfg) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_classical_newton_divergence_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A quartic solve that needs two Newton steps, capped at one, exits 3 without a traceback."""
    monkeypatch.setattr(fieldlab.classical, "NEWTON_MAXITER", 1)
    cfg = classical_config({"t0": [0.0, 0.0], "t1": [1.0, 1.0],
                            "z0": [0.12, -0.1], "z1": [-0.1, 0.09]})
    cfg["lattice"]["n_sites"] = 2
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    assert run(tmp_path, cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: no convergence after 1 iterations")
    assert "Traceback" not in err


def test_classical_solves_above_the_absolute_newton_tol(tmp_path):
    """A quartic swing whose gradient cannot reach NEWTON_TOL in floating point still solves."""
    cfg = classical_config({"t0": [0.0], "t1": [0.1], "z0": [30.0], "z1": [-30.0]}, dt_c=1e-4)
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    assert run(tmp_path, cfg) == 0
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert fieldlab.classical.NEWTON_TOL < report["residual"] < 1e-8


def test_classical_stalled_line_search_is_numerical_failure(tmp_path, capsys):
    """A quartic swing of 200 in a time of 0.1 stalls Newton's line search far above any
    roundoff floor: exit 3 with the one message line, and nothing written."""
    cfg = classical_config({"t0": [0.0], "t1": [0.1], "z0": [100.0], "z1": [-100.0]},
                           dt_c=1e-3)
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    assert run(tmp_path, cfg) == 3
    assert capsys.readouterr().err == (
        "numerical failure: line search stalled at residual 1.664e+02\n")
    assert not (tmp_path / "out" / "residuals.json").exists()


ORACLE_BOUNDARY = {"t0": [0.0], "t1": [1.0], "z0": [0.3], "z1": [-0.4]}


@pytest.mark.parametrize("field,value,boundary,needle", [
    ("fd_epsilon", 0.0, ORACLE_BOUNDARY, "must be positive"),
    ("fd_epsilon", -1e-4, ORACLE_BOUNDARY, "must be positive"),
    ("fd_epsilon", 10.0, ORACLE_BOUNDARY, "t0_j < t1_j"),
    ("fd_epsilon", 0.6, {"t0": [0.0, 0.0], "t1": [1.0, 1.5], "z0": [0.1, 0.2],
                         "z1": [0.3, 0.4]}, "violate |v| < 1"),
    ("fd_epsilon", 0.5, ORACLE_BOUNDARY, "two interior rows"),
    ("dt_c", 1.0, ORACLE_BOUNDARY, "two interior rows"),
    ("dt_c", 0.0, ORACLE_BOUNDARY, "must be positive"),
])
def test_classical_step_errors_are_config_errors(tmp_path, capsys, field, value, boundary,
                                                 needle):
    """Steps that leave no valid grid or varied boundary exit 2 at their field, no traceback."""
    cfg = classical_config(boundary, dt_c=0.3)
    cfg["lattice"]["n_sites"] = len(boundary["t0"])
    cfg["classical"][field] = value
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: classical.{field}: ") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t0,t1,dt_c", [(0.0, 1e-322, 1e-323), (1.75, 1.7500000000000002, 5e-17)],
                         ids=["subnormal-span", "one-ulp-span"])
def test_reparameterization_time_shift_that_merges_the_surfaces_is_a_config_error(
        tmp_path, capsys, t0, t1, dt_c):
    """t0 and t1 that the check's time shift of 0.37 rounds to one value exit 2 before any
    solve.  Both were tracebacks: the first from the guard's dt_c / 4, which underflows to 0,
    the second from the shift after the base solve."""
    cfg = classical_config({"t0": [t0], "t1": [t1], "z0": [0.0], "z1": [0.0]},
                           checks=("reparameterization",), dt_c=dt_c)
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: classical.checks: surfaces must satisfy t0_j < t1_j")
    assert not (tmp_path / "out" / "residuals.json").exists()


@pytest.mark.parametrize("n_sites", [1, 2])
@pytest.mark.parametrize("spacing", [0.0, -1.0])
def test_classical_spacing_must_be_positive(tmp_path, capsys, n_sites, spacing):
    """Spacing 0 used to divide by zero and -1 flipped the sign of the action."""
    boundary = {key: values * n_sites for key, values in ORACLE_BOUNDARY.items()}
    cfg = classical_config(dict(boundary, spacing=spacing))
    cfg["lattice"]["n_sites"] = n_sites
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: classical.boundary.spacing: must be positive")
    assert "Traceback" not in err and "Warning" not in err


def test_classical_tiny_dt_c_hits_grid_guard(tmp_path, capsys):
    cfg = classical_config(ORACLE_BOUNDARY, dt_c=1e-9)
    start = time.perf_counter()
    assert run(tmp_path, cfg) == 4
    assert time.perf_counter() - start < 1.0
    assert "resource guard" in capsys.readouterr().err


def test_classical_grid_guard_covers_the_finest_grid(tmp_path, capsys, monkeypatch):
    """reparameterization solves at dt_c / 4; the guard sees that grid before any solve."""
    monkeypatch.setattr(fieldlab.classical, "MAX_GRID_POINTS", 3000)
    cfg = classical_config(ORACLE_BOUNDARY, checks=("reparameterization",), dt_c=1e-3)
    assert run(tmp_path, cfg) == 4
    assert "3000 point grid guard" in capsys.readouterr().err
    assert not (tmp_path / "out" / "residuals.json").exists()
    cfg["classical"]["checks"] = []
    assert run(tmp_path, cfg) == 0


# --- validation corpus -----------------------------------------------------------

DROP = object()  # a MALFORMED value that removes its key from the base config

MALFORMED = [
    ({}, "exactly one command block"),
    ({"legendre": {}, "evolve": {}}, "exactly one command block"),
    ({"legendre": []}, "must be an object"),
    ({"evolve": {"steps": 1, "initial": {"kind": "ground_state", "mass": 1.0},
                 "dt": -0.5}}, "evolve.dt"),
    ({"evolve": {"steps": "ten", "initial": {"kind": "ground_state", "mass": 1.0}}},
     "evolve.steps"),
    ({"evolve": {"steps": 1, "initial": {"kind": "warp"}}}, "evolve.initial.kind"),
    ({"surface": {"total_time": 0.1, "dt_values": [0.05], "initial":
      {"kind": "ground_state", "mass": 1.0}, "schedule_a": {"kind": "sweep"},
      "schedule_b": {"kind": "zigzag"}}}, "surface.schedule_b.kind"),
    ({"feynman": {"dt": 0.1, "t_steps": -1, "levels": 2, "initial":
      {"kind": "ground_state", "mass": 1.0}}}, "feynman.t_steps"),
    ({"classical": {"boundary": {"t0": [0.0], "t1": [0.0], "z0": [0.1],
                                 "z1": [0.1]}}}, "classical.boundary"),
    ({"classical": {"boundary": {"t0": [0.0], "t1": ["later"], "z0": [0.1],
                                 "z1": [0.1]}}}, "classical.boundary.t1[0]"),
    ({"evolve": {"steps": 1, "initial": {"kind": "ground_state", "mass": 1.0},
                 "dt": float("nan")}}, "evolve.dt"),
    ({"surface": {"total_time": 0.1, "dt_values": [0.05, 0.0], "initial":
      {"kind": "ground_state", "mass": 1.0}, "schedule_a": {"kind": "sweep"},
      "schedule_b": {"kind": "sweep"}}}, "surface.dt_values[1]"),
    ({"surface": {"total_time": 0.1, "dt_values": [], "initial":
      {"kind": "ground_state", "mass": 1.0}, "schedule_a": {"kind": "sweep"},
      "schedule_b": {"kind": "sweep"}}}, "surface.dt_values"),
    ({"evolve": {"steps": 1, "initial": {"kind": "ground_state", "mass": 1.0},
                 "method": "crank_nicolson", "cn_tol": -1.0}}, "evolve.cn_tol"),
    ({"seed": 1.5, "legendre": {}}, "config error: seed: expected an integer, got 1.5"),
    ({"lagrangian": DROP, "legendre": {}}, "config error: lagrangian: missing required field"),
    ({"lattice": DROP, "evolve": {"steps": 1, "initial": {"kind": "ground_state", "mass": 1.0}}},
     "config error: lattice: missing required field"),
    ({}, "config error: exactly one command block"),
    ({"feynman": {"dt": -0.1, "t_steps": 1, "initial": {"kind": "ground_state", "mass": 1.0}}},
     "config error: feynman.dt: must be nonnegative"),
    ({"feynman": {"dt": 0.1, "t_steps": 1, "kernel": "riemann", "initial":
      {"kind": "ground_state", "mass": 1.0}}}, "config error: feynman.kernel: "),
    ({"feynman": {"dt": 0.0, "t_steps": 0, "kernel": "lagrangian_riemann", "initial":
      {"kind": "ground_state", "mass": 1.0}}},
     "config error: feynman.dt: the lagrangian_riemann kernel needs dt > 0"),
    ({"legendre": {"slope": 1e300}}, "config error: legendre.slope: "),
    ({"feynman": {"dt": 0.1, "t_steps": 10 ** 400, "initial": {"kind": "ground_state", "mass": 1.0}}},
     "config error: feynman.t_steps: must fit in 64 bits"),
]


@pytest.mark.parametrize("block,needle", MALFORMED)
def test_malformed_configs_rejected(tmp_path, capsys, block, needle):
    cfg = {key: value for key, value in base_config(block).items() if value is not DROP}
    assert run(tmp_path, cfg) == 2
    assert needle in capsys.readouterr().err


def stored_on_two_sites(tmp_path):
    """A one-site evolve config whose initial state file holds a two-site state."""
    cfg = LatticeConfig(2, 1.0, 16, 8.0)
    save_state(WaveFunctional(cfg, np.ones(cfg.shape, dtype=complex)), tmp_path / "two.bin")
    return evolve_config(5, initial={"kind": "file", "path": "two.bin"})


def three_site_ground_state(**initial):
    cfg = evolve_config(5, initial={"kind": "ground_state", **initial})
    cfg["lattice"]["n_sites"] = 3
    return cfg


def with_key(cfg, block, key, value):
    """``cfg`` with ``key`` set in the block at ``block`` (a name, a path of names or the root)."""
    target = cfg
    for name in (block,) if isinstance(block, str) else block or ():
        target = target[name]
    target[key] = value
    return cfg


def without_output_dir():
    cfg = base_config({"legendre": {}})
    del cfg["output_dir"]
    return cfg


@pytest.mark.parametrize("build,out,line", [
    (lambda tmp: surface_config({"kind": "moves", "moves": [[5, 0.05]]}, SWEEPS[1]), True,
     "surface.schedule_a.moves[0]: site 5 out of range"),
    (lambda tmp: three_site_ground_state(mass=1.0, centers=[0.0, 0.0]), True,
     "evolve.initial.centers: expected 3 entries"),
    (lambda tmp: evolve_config(5, initial={"kind": "ground_state", "mass": -1.0}), True,
     "evolve.initial.mass: mass must be nonnegative"),
    (stored_on_two_sites, True,
     "evolve.initial.path: stored lattice differs from the config lattice"),
    (lambda tmp: [base_config({"legendre": {}})], True, "config root must be an object"),
    (lambda tmp: without_output_dir(), False, "output_dir: missing (or pass --out)"),
    (lambda tmp: {**base_config({"legendre": {}}), "lagrangian": {"text": "0.5*zt^2 - z^6*z"}},
     True, "lagrangian.text: potential degree 7 exceeds maximum 6"),
    (lambda tmp: surface_config({"kind": "moves", "moves": [[0, 0.05, 1]]}, SWEEPS[1]), True,
     "surface.schedule_a.moves[0]: expected 2 entries, got [0, 0.05, 1]"),
    (lambda tmp: with_key(evolve_config(5), "evolve", "methd", "exact"), True,
     "evolve.methd: unknown key"),
    (lambda tmp: with_key(base_config({"legendre": {}}), None, "sed", 1), True, "sed: unknown key"),
    (lambda tmp: with_key(evolve_config(5), "lattice", "qpoints", 8), True,
     "lattice.qpoints: unknown key"),
    (lambda tmp: with_key(three_site_ground_state(mass=1.0), ("evolve", "initial"), "widths", [1.0]),
     True, "evolve.initial.widths: unknown key"),
    (lambda tmp: surface_config({"kind": "moves", "moves": [[0, 0.05]], "direction": "left_right"},
                                SWEEPS[1]), True, "surface.schedule_a.direction: unknown key"),
    (lambda tmp: with_key(classical_config({"t0": [0.0], "t1": [1.0], "z0": [0.3], "z1": [-0.4]}),
                             ("classical", "boundary"), "spacng", 1.0),
     True, "classical.boundary.spacng: unknown key"),
    (lambda tmp: with_key(base_config({"legendre": {}}), "lagrangian", "params",
                          {"m": 1.0, "mm": 2.0}), True,
     "lagrangian.params.mm: not used by lagrangian.text"),
    (lambda tmp: with_key(base_config({"legendre": {}}), "lagrangian", "text",
                          "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2"), True,
     "lagrangian.params.m: not used by lagrangian.text"),
], ids=["move-site", "ground-state-centers", "negative-mass", "state-lattice", "root-list",
        "no-output-dir", "degree-by-product", "move-entry-length", "evolve-key", "root-key",
        "lattice-key", "initial-key-of-another-kind", "schedule-key-of-another-kind",
        "boundary-key", "unused-param", "param-dropped-from-text"])
def test_config_errors_print_one_line(tmp_path, capsys, build, out, line):
    """Each config error exits 2 with its one message line on stderr and writes nothing."""
    path = write_config(tmp_path, build(tmp_path))
    argv = ["run", str(path)] + (["--out", str(tmp_path / "out")] if out else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not (tmp_path / "out" / "meta.json").exists()


@pytest.mark.parametrize("build,block,key,value,needle", [
    (lambda: evolve_config(5), "lattice", "q_extent", 1e-300, "holds NaN or infinity"),
    (lambda: evolve_config(5), "lattice", "spacing", 1e-300,
     "(lattice.hbar / lattice.spacing)^2 = (1 / 1e-300)^2 overflows"),
    (lambda: feynman_config(), "lattice", "q_extent", 1e-300, "did not converge"),
    (lambda: surface_config(*SWEEPS), "lagrangian", "params", {"m": 1e154},
     "integrability.json.discrepancies[0] holds NaN or infinity"),
], ids=["evolve-nan-state", "evolve-overflow", "feynman-eigh", "surface-nan-report"])
def test_overflowing_runs_are_numerical_failures(tmp_path, capsys, build, block, key, value,
                                                 needle):
    """Finite inputs whose numbers overflow exit 3 before writing, not 0 with NaN or a traceback,
    and quietly: with RuntimeWarnings as errors, stderr holds the one typed message."""
    cfg = build()
    cfg[block][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, cfg) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and needle in err[0]
    assert not (tmp_path / "out" / "meta.json").exists()


def test_feynman_subnormal_dt_fits_no_zero_step(tmp_path):
    """At dt = 5e-324 the halved level step underflows to 0; the order fit skips it."""
    assert run(tmp_path, feynman_config(dt=5e-324)) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert report["dt_values"][1] == 0.0 and report["fitted_order"] == 0.0


@pytest.mark.parametrize("dt", [5e-324, 1e-323])
def test_feynman_riemann_ladder_step_underflow_is_config_error(tmp_path, capsys, monkeypatch, dt):
    """A Riemann level step that underflows to 0 is refused at feynman.dt, naming the level,
    before the exact propagator is built."""
    def no_work(*args):
        raise AssertionError("the exact propagator was built before the ladder was checked")

    monkeypatch.setattr(fieldlab.feynman, "ExactPropagator", no_work)
    cfg = feynman_config(dt=dt, kernel="lagrangian_riemann", q=16)
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2", "params": {}}
    del cfg["feynman"]["levels"]  # the default 3 levels
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: feynman.dt: ladder level ") and "needs dt > 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "meta.json").exists()


@pytest.mark.parametrize("lattice,feynman", [
    ({}, {"dt": 1e-300}),
    ({"hbar": 1e-300}, {}),
    ({}, {"dt": 1e-300, "t_steps": 1, "identity_check": "force"}),
], ids=["dt", "hbar", "dt-history-sum"])
def test_feynman_riemann_overflow_prints_only_its_message(tmp_path, capsys, lattice, feynman):
    """A Riemann ladder whose steps overflow exits 3 with warnings as errors, and stderr
    holds the typed message alone."""
    cfg = feynman_config(t_steps=3, kernel="lagrangian_riemann", identity="skip", q=16)
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*z^2", "params": {}}
    cfg["lattice"].update(q_extent=8.0, **lattice)
    cfg["feynman"].update(levels=3, **feynman)
    cfg["feynman"]["initial"] = {"kind": "gaussian", "centers": [0.0], "widths": [1.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, cfg) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def test_overflowing_lagrangian_parameter_rejected(tmp_path, capsys):
    """m = -1e300 makes the z^2 coefficient -0.5*m^2 infinite: a config error before any work."""
    cfg = surface_config(*SWEEPS)
    cfg["lagrangian"]["params"] = {"m": -1e300}
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: lagrangian.params: ") and "-inf" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_lattice_number_rejected(tmp_path, capsys):
    cfg = evolve_config(5)
    cfg["lattice"]["q_extent"] = float("inf")
    assert run(tmp_path, cfg) == 2
    assert "lattice.q_extent" in capsys.readouterr().err


@pytest.mark.parametrize("exponent,code", [
    ("0" * 5000 + "2", 0),  # leading zeros drop: the same spec as z^2
    ("0" * 5000 + "123456789012345678901234", 2),
], ids=["zero-padded-2", "zero-padded-long"])
def test_long_exponent_literal(tmp_path, capsys, exponent, code):
    """An exponent literal past int()'s 4,300-digit limit is read by its significant digits."""
    cfg = base_config({"legendre": {}})
    cfg["lagrangian"] = {"text": f"0.5*zt^2 - z^{exponent}", "params": {}}
    assert run(tmp_path, cfg) == code
    if code == 0:
        cfg["lagrangian"]["text"] = "0.5*zt^2 - z^2"
        assert run(tmp_path, cfg, out="plain") == 0
        assert ((tmp_path / "out" / "hamiltonian.txt").read_text()
                == (tmp_path / "plain" / "hamiltonian.txt").read_text())
    else:
        err = capsys.readouterr().err
        assert err.startswith("config error: lagrangian.text: ") and "maximum degree 6" in err


def test_huge_exponent_rejected_quickly(tmp_path, capsys):
    cfg = base_config({"legendre": {}})
    cfg["lagrangian"]["text"] = "0.5*zt^2 - 0.5*z^99999999"
    start = time.perf_counter()
    assert run(tmp_path, cfg) == 2
    assert time.perf_counter() - start < 1.0
    assert "lagrangian.text" in capsys.readouterr().err


def test_truncated_state_file_rejected(tmp_path, capsys):
    assert run(tmp_path, evolve_config(0), out="first") == 0
    state_bytes = (tmp_path / "first" / "final_state.bin").read_bytes()
    (tmp_path / "cut.bin").write_bytes(state_bytes[:-8])
    assert run(tmp_path, evolve_config(5, initial={"kind": "file", "path": "cut.bin"})) == 2
    assert "evolve.initial.path" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude,reason", [
    (np.nan, "NaN or infinity"), (np.inf, "NaN or infinity"), (0.0, "every amplitude is zero"),
], ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("command", ["evolve", "surface", "feynman"])
def test_bad_state_file_is_a_config_error(tmp_path, capsys, command, amplitude, reason):
    """A state file of NaN, infinite or zero amplitudes exits 2 when loaded, before any work."""
    payload = {"evolve": evolve_config(5), "surface": surface_config(*SWEEPS),
               "feynman": feynman_config()}[command]
    cfg = LatticeConfig(**payload["lattice"])
    save_state(WaveFunctional(cfg, np.full(cfg.shape, amplitude, dtype=complex)),
               tmp_path / "bad.bin")
    payload[command]["initial"] = {"kind": "file", "path": "bad.bin"}
    assert run(tmp_path, payload) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command}.initial.path: ") and reason in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("initial,needle,reason", [
    ({"kind": "ground_state", "mass": 0.0}, "evolve.initial.mass", "omega = 0"),
    ({"kind": "gaussian", "centers": [0.0], "widths": [0.3]}, "evolve.initial.widths",
     "below one grid cell"),
    ({"kind": "gaussian", "centers": [0.0], "widths": [-1.0]}, "evolve.initial.widths",
     "must be positive"),
])
def test_initial_state_errors_are_config_errors(tmp_path, capsys, initial, needle, reason):
    """Errors from building the initial state exit 2 at their config path, no traceback."""
    assert run(tmp_path, evolve_config(5, initial=initial)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {needle}: ") and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_sites", [1, 3])
@pytest.mark.parametrize("mass", [1e-300, 1e-200])
def test_ground_state_mass_squaring_to_zero_is_a_config_error(tmp_path, capsys, mass, n_sites):
    """A mass whose square underflows leaves omega = 0: exit 2, not a flat state and exit 0."""
    cfg = evolve_config(5, initial={"kind": "ground_state", "mass": mass})
    cfg["lattice"]["n_sites"] = n_sites
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: evolve.initial.mass: ") and "omega = 0" in err
    assert "Warning" not in err
    assert not (tmp_path / "out" / "meta.json").exists()


@pytest.mark.parametrize("params", [{}, {"m": 1.0}], ids=["no-params", "params"])
def test_non_finite_lagrangian_literal_is_reported_in_the_text(tmp_path, capsys, params):
    """1e400 overflows as written: the error names the text and the literal's position."""
    cfg = base_config({"legendre": {}})
    cfg["lagrangian"] = {"text": "0.5*zt^2 - 0.5*zx^2 - 1e400*z^2", "params": params}
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: lagrangian.text: ")
    assert "'1e400' is not finite (at position 22)" in err


def test_readme_lists_every_schema_key():
    """README's command-block section names every key the config schema reads."""
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme[readme.index("Command blocks."):readme.index("Exit codes:")]
    missing = [f"{block}.{key}" for block, table in SCHEMA.items() for key in table
               if f"`{key}`" not in section and f'"{key}"' not in section]
    assert missing == []


def test_schema_kernels_are_the_feynman_kernels():
    """The schema spells the kernel names out, so checking them imports no feynman module."""
    _, default, rule = SCHEMA["feynman"]["kernel"]
    assert default in fieldlab.feynman.KERNELS
    for kernel in fieldlab.feynman.KERNELS:
        rule(kernel, "feynman.kernel")
    with pytest.raises(ConfigError, match=f"one of {', '.join(fieldlab.feynman.KERNELS)}, got"):
        rule("riemann", "feynman.kernel")


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name,content", [
    ("directory", None),
    ("utf16.json", b"\xff\xfe{\x00}\x00"),
    ("deep.json", b"[" * 100_000 + b"]" * 100_000),
    ("long_int.json", b'{"seed": ' + b"7" * 5000 + b"}"),
], ids=["directory", "not-utf8", "nested-100000", "int-5000-digits"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_unusable_output_dir_is_a_config_error(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("a file, not a directory\n")
    code = main(["run", str(write_config(tmp_path, base_config({"legendre": {}}))),
                 "--out", str(tmp_path / out)])
    assert code == 2
    assert "config error: output_dir:" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("text,position", [
    ("(" * 300 + "0.5*zt^2" + ")" * 300, 200),
    ("0.5*zt^2 + " + "-" * 3000 + "z", 211),
], ids=["parentheses-300", "minus-3000"])
def test_deeply_nested_lagrangian_is_a_config_error(tmp_path, capsys, text, position):
    cfg = base_config({"legendre": {}})
    cfg["lagrangian"] = {"text": text, "params": {}}
    assert run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "lagrangian.text" in err and f"(at position {position})" in err


@pytest.mark.parametrize("payload,taken", [
    (base_config({"legendre": {}}), "hamiltonian.txt"),
    (evolve_config(5), "final_state.bin"),
    (base_config({"legendre": {}}), "meta.json"),
], ids=["legendre", "evolve", "meta"])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, payload, taken):
    """An output file whose name a directory holds exits 2 at output_dir, no traceback."""
    (tmp_path / "out" / taken).mkdir(parents=True)
    assert run(tmp_path, payload) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir: ") and taken in err


@pytest.mark.parametrize("path,reason", [
    ("missing.bin", "does not exist"),
    ("x" * 5000, ""),  # a name the OS refuses to look up
], ids=["missing", "name-too-long"])
def test_unreadable_initial_path_is_reported_there(tmp_path, capsys, path, reason):
    assert run(tmp_path, evolve_config(5, initial={"kind": "file", "path": path})) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: evolve.initial.path: ") and reason in err


@pytest.mark.parametrize("value,message", [
    (5, "expected str, got 5"),
    (True, "expected str, got True"),
    (["a"], "expected str, got ['a']"),
    ("", "must not be empty"),
    ("a\0b", "holds a NUL character"),
], ids=["int", "bool", "list", "empty", "nul"])
@pytest.mark.parametrize("out", [False, True], ids=["config", "--out"])
def test_output_dir_must_be_a_nonempty_path(tmp_path, capsys, value, message, out):
    """A bad output_dir exits 2 at output_dir even when --out overrides it, and writes
    nothing; an empty one would put the results beside the config."""
    path = write_config(tmp_path, with_key(base_config({"legendre": {}}), None, "output_dir",
                                           value))
    argv = ["run", str(path)] + (["--out", str(tmp_path / "out")] if out else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: output_dir: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_output_dir_from_config(tmp_path):
    cfg = base_config({"legendre": {}})
    cfg["output_dir"] = "nested/results"
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "nested" / "results" / "hamiltonian.txt").exists()


# --- determinism ------------------------------------------------------------------

def tree_digest(root: Path) -> dict:
    digest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digest


def test_determinism_across_commands(tmp_path):
    configs = {
        "legendre": base_config({"legendre": {}}),
        "evolve": evolve_config(10),
        "surface": surface_config({"kind": "sweep", "direction": "left_right"},
                                  {"kind": "sweep", "direction": "right_left"}),
        "feynman": feynman_config(),
        "classical": classical_config({"t0": [0.0], "t1": [1.0],
                                       "z0": [0.3], "z1": [-0.4]}),
    }
    for name, cfg in configs.items():
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        assert run(tmp_path, cfg, out=f"{name}_a") == 0
        assert run(tmp_path, cfg, out=f"{name}_b") == 0
        assert tree_digest(first) == tree_digest(second), name
