"""Configs mutated one key at a time, driven by cli.SCHEMA.

Each example takes a valid config on a tiny lattice, applies one mutation to
one key of one SCHEMA table (drop it, give it the wrong type, put an edge
number, NaN, Infinity or a bool in it, or name an unknown choice), and runs
it through ``main``.  The run must exit 0, 2, 3 or 4 without an exception and
within a time bound, and every number it writes must be finite.  The pool
holds 2**62: a step or level count that large must meet the step guard.
"""

import contextlib
import copy
import io
import json
import math
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldlab import cli
from fieldlab.lattice import load_state

TIME_LIMIT_S = 10

FREE = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*m^2*z^2", "params": {"m": 1.0}}
QUARTIC = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - lam*z^4", "params": {"lam": 0.1}}
ONE_SITE = {"n_sites": 1, "spacing": 1.0, "q_points": 8, "q_extent": 6.0, "hbar": 1.0,
            "derivative": "spectral"}
TWO_SITES = {"n_sites": 2, "q_points": 8, "q_extent": 5.0}
GROUND = {"kind": "ground_state", "mass": 1.0, "centers": [0.2]}
STATE = "<state file>"  # replaced by the path of the state_file fixture
GAUSSIAN = {"kind": "gaussian", "centers": [0.1, -0.2], "widths": [1.0, 0.9], "phase": 0.3}


def _config(lagrangian, lattice, command, block):
    return {"lagrangian": lagrangian, "lattice": lattice, "seed": 3, command: block}


def _surface(schedule_a, schedule_b, **extra):
    return _config(FREE, TWO_SITES, "surface", dict({
        "total_time": 0.1, "dt_values": [0.05, 0.025], "integrator": "exact",
        "ratio_floor": 1.8, "initial": GAUSSIAN,
        "schedule_a": schedule_a, "schedule_b": schedule_b}, **extra))


# valid configs; together they reach every SCHEMA table (checked below)
BASES = {
    "legendre": _config(FREE, ONE_SITE, "legendre", {"slope": 0.2}),
    "evolve": _config(QUARTIC, ONE_SITE, "evolve", {
        "method": "strang", "steps": 4, "dt": 0.01, "log_every": 2, "cn_tol": 1e-10,
        "initial": GROUND}),
    "evolve-file": _config(FREE, ONE_SITE, "evolve", {
        "method": "crank_nicolson", "steps": 2, "initial": {"kind": "file", "path": STATE}}),
    "surface-sweeps": _surface({"kind": "sweep", "direction": "left_right"},
                               {"kind": "sweep", "direction": "right_left"}),
    "surface-moves": _surface({"kind": "moves", "moves": [[0, 0.05], [1, 0.05]]},
                              {"kind": "moves", "moves": [[1, 0.05], [0, 0.05]]},
                              start_times=[0.0, 0.02]),
    "feynman": _config(QUARTIC, ONE_SITE, "feynman", {
        "kernel": "fresnel_exact", "dt": 0.1, "t_steps": 1, "levels": 2,
        "identity_check": "auto", "initial": GROUND}),
    "classical": _config(QUARTIC, ONE_SITE, "classical", {
        "boundary": {"t0": [0.0], "t1": [1.0], "z0": [0.3], "z1": [-0.4], "spacing": 1.0},
        "dt_c": 0.05, "fd_epsilon": 1e-4, "checks": ["hj_residuals", "reparameterization"]}),
}


def blocks(config):
    """(key path to a block, SCHEMA table the block is read with) for each block of config."""
    command = next(name for name in cli.COMMANDS if name in config)
    yield (), ""
    yield ("lagrangian",), "lagrangian"
    yield ("lattice",), "lattice"
    yield (command,), command
    for key, value in config[command].items():
        if key == "initial":
            yield (command, key), "initial"
            yield (command, key), f"initial.{value['kind']}"
        elif key.startswith("schedule_"):
            yield (command, key), "schedule"
            yield (command, key), f"schedule.{value['kind']}"
        elif key == "boundary":
            yield (command, key), "classical.boundary"


SITES = [(path, table, key) for name, config in BASES.items()
         for path, table in blocks(config) for key in cli.SCHEMA[table]]
TARGETS = sorted({(table, key) for _, table, key in SITES})

WRONG_TYPES = ["text", [], {}, None, True, False]
NUMBERS = [math.nan, math.inf, -math.inf, True, -1e300, -1.0, -1, 0, 0.0, 5e-324, 1e-300,
           0.5, 2, 2 ** 62, 1e300, 10 ** 400, -(10 ** 400)]
ENTRIES = NUMBERS + ["text", None, [0, 0.05], [5, 0.05], [-1, 0.05], [True, 0.05], [0, math.nan],
                     [0]]


def values_for(kind):
    """Replacement values for a key of this kind: wrong types, edge numbers, odd entries."""
    if kind in (float, int):
        return WRONG_TYPES + NUMBERS
    if kind is str:
        return WRONG_TYPES + [1, "", "bogus"]
    if isinstance(kind, list) or kind is list:
        return WRONG_TYPES + [[], *([entry] for entry in ENTRIES), [0.5] * 3]
    if isinstance(kind, dict):
        return WRONG_TYPES + [{"m": value} for value in NUMBERS] + [{"m": "x"}]
    return WRONG_TYPES + [{}, {"kind": "bogus"}]


@st.composite
def mutated_configs(draw, table, key):
    sites = [(name, path) for name, config in BASES.items()
             for path, t in blocks(config) if t == table]
    name, path = draw(st.sampled_from(sites))
    config = copy.deepcopy(BASES[name])
    block = config
    for part in path:
        block = block[part]
    kind = cli.SCHEMA[table][key][0]
    if draw(st.booleans()):
        block.pop(key, None)
    elif isinstance(kind, list) and key in block and block[key] and draw(st.booleans()):
        block[key][draw(st.integers(0, len(block[key]) - 1))] = draw(st.sampled_from(ENTRIES))
    else:
        block[key] = draw(st.sampled_from(values_for(kind)))
    return config


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_finite(value, where):
    if isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_finite(item, f"{where}[{i}]")
    elif isinstance(value, str):
        assert value.lower().lstrip("+-") not in ("nan", "inf", "infinity"), where
    elif isinstance(value, float):
        assert math.isfinite(value), where


def assert_outputs_finite(outdir: Path):
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            assert_finite(json.loads(path.read_text()), path.name)
        elif path.suffix == ".csv":
            for line in path.read_text().splitlines()[2:]:
                assert all(math.isfinite(float(x)) for x in line.split(",")), (path.name, line)
        elif path.suffix == ".bin":
            assert np.isfinite(load_state(path).psi).all(), path.name


@pytest.fixture(scope="module")
def state_file(tmp_path_factory):
    """A one-site state for the `file` initial, written by a plain evolve run."""
    root = tmp_path_factory.mktemp("state")
    config = copy.deepcopy(BASES["evolve"])
    config["lagrangian"] = FREE
    config["evolve"]["steps"] = 0
    (root / "config.json").write_text(json.dumps(config))
    assert cli.main(["run", str(root / "config.json"), "--out", str(root)]) == 0
    return str(root / "final_state.bin")


def test_bases_reach_every_schema_key():
    assert TARGETS == sorted((table, key) for table in cli.SCHEMA for key in cli.SCHEMA[table])


@pytest.mark.parametrize("table,key", TARGETS, ids=[f"{t or 'root'}.{k}" for t, k in TARGETS])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_exits_cleanly(state_file, table, key, data):
    text = json.dumps(data.draw(mutated_configs(table, key)))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(text.replace(json.dumps(STATE),
                                                            json.dumps(state_file)))
        stderr = io.StringIO()
        start = time.perf_counter()
        with time_limit(TIME_LIMIT_S), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(Path(tmp) / "config.json"), "--out", f"{tmp}/out"])
        assert time.perf_counter() - start < TIME_LIMIT_S
        assert code in (0, 2, 3, 4), stderr.getvalue()
        if code == 0:
            assert_outputs_finite(Path(tmp) / "out")
        else:
            assert stderr.getvalue().splitlines()[-1].startswith(
                ("config error: ", "numerical failure: ", "resource guard: "))
