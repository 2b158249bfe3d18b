"""No command imports the scipy package or OpenSSL, a run imports no other command's
modules, and importing ``cli`` sets the interpreter's exit to skip tearing down its heap.

``classical`` loads scipy's compiled LAPACK extension at its first
factorization, straight from its file, so no ``scipy`` module is left in
``sys.modules``; every other command needs nothing from scipy.  ``cli``
imports each command's modules inside the command.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fieldlab
import fieldlab.classical
from fieldlab.classical import BoundaryData, solve_extremal

SRC = Path(fieldlab.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def stdout_of(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports fieldlab from this checkout; return
    its standard output, exit handlers' lines included."""
    probe = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    done = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the modules it left loaded."""
    return json.loads(stdout_of(f"{code}\nprint(json.dumps(sorted(sys.modules)))",
                                *args).splitlines()[-1])


def scipy_modules_after(code: str, *args: str) -> list[str]:
    """The scipy modules ``code`` left loaded; scipy's ``_flapack`` extension counts too,
    under any package name."""
    return [m for m in modules_after(code, *args)
            if m.split(".")[0] == "scipy" or m.split(".")[-1] == "_flapack"]


RUN = ("from fieldlab.cli import main\n"
       "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0")


@pytest.mark.parametrize("statement", ["import fieldlab", "import fieldlab.cli"])
def test_import_loads_no_scipy(statement):
    assert scipy_modules_after(statement) == []


COMMAND_MODULES = {f"fieldlab.{name}"
                   for name in ("classical", "evolve", "feynman", "operators", "surface")}


@pytest.mark.parametrize("config,own", [(None, set()), ("legendre_free", set()),
                                        ("classical_oscillator", {"fieldlab.classical"}),
                                        ("feynman_quartic", {"fieldlab.feynman", "fieldlab.evolve",
                                                             "fieldlab.operators"})],
                         ids=["import", "legendre", "classical", "feynman"])
def test_run_loads_no_other_command_modules(tmp_path, config, own):
    if config is None:
        loaded = modules_after("import fieldlab.cli")
    else:
        loaded = modules_after(RUN, str(CONFIGS / f"{config}.json"), str(tmp_path / "out"))
    assert set(loaded) & COMMAND_MODULES == own


@pytest.mark.parametrize("config", ["surface_sweeps", "feynman_quartic"])
def test_ladder_runs_leave_numpy_ma_unloaded(tmp_path, config):
    """A refinement verdict counts distinct steps without ``np.unique``, which imports
    ``numpy.ma`` (11-18 ms of a run's start)."""
    loaded = modules_after(RUN, str(CONFIGS / f"{config}.json"), str(tmp_path / "out"))
    assert "numpy.ma" not in loaded


def classical_checks_config(tmp_path) -> Path:
    """A 2-site quartic classical config that runs both checks."""
    config = json.loads((CONFIGS / "classical_oscillator.json").read_text())
    config["lagrangian"] = {"text": "0.5*zt^2 - 0.5*zx^2 - 0.5*z^2 - 0.1*z^4", "params": {}}
    config["lattice"]["n_sites"] = 2
    config["classical"].update(
        boundary={"t0": [0.0, 0.0], "t1": [1.0, 1.0], "z0": [0.12, -0.1], "z1": [-0.1, 0.09]},
        dt_c=0.01, checks=["hj_residuals", "reparameterization"])
    path = tmp_path / "classical_checks.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("name", ["legendre_free", "evolve_coherent", "feynman_quartic",
                                  "surface_sweeps", "classical_oscillator", "classical_checks"])
def test_sample_run_loads_no_scipy(tmp_path, name):
    path = (classical_checks_config(tmp_path) if name == "classical_checks"
            else CONFIGS / f"{name}.json")
    assert scipy_modules_after(RUN, str(path), str(tmp_path / "out")) == []
    assert any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("name", ["legendre_free", "evolve_coherent", "feynman_quartic",
                                  "surface_sweeps", "classical_oscillator"])
def test_sample_run_loads_no_numpy_polynomial(tmp_path, name):
    """Potentials are evaluated by Horner's rule and fits by ``np.polyfit``, so no run
    imports the ``numpy.polynomial`` package; a feynman run imports no ``fractions``."""
    loaded = modules_after(RUN, str(CONFIGS / f"{name}.json"), str(tmp_path / "out"))
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]
    if name == "feynman_quartic":
        assert "fractions" not in loaded


@pytest.mark.parametrize("name", [None, "legendre_free", "evolve_coherent", "feynman_quartic",
                                  "surface_sweeps", "classical_oscillator"])
def test_import_and_sample_runs_load_no_openssl(tmp_path, name):
    """The config stamp is CPython's built-in SHA-256: ``hashlib`` would load ``_hashlib``,
    which maps OpenSSL's libcrypto (3.3 MB of a run's RSS)."""
    if name is None:
        loaded = modules_after("import fieldlab.cli")
    else:
        loaded = modules_after(RUN, str(CONFIGS / f"{name}.json"), str(tmp_path / "out"))
    assert "_hashlib" not in loaded


def test_exit_freezes_the_heap_after_a_run(tmp_path):
    """``cli`` registers ``gc.freeze`` to run at exit, so finalization leaves the heap built
    at import to the OS.  Exit handlers run last in, first out: one registered before the
    import runs after the freeze."""
    out = stdout_of("import atexit, gc\n"
                    "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
                    + RUN, str(CONFIGS / "evolve_coherent.json"), str(tmp_path / "out"))
    assert out.splitlines()[-1] == "frozen: True"


def test_exit_freeze_is_registered_once(tmp_path):
    """Repeated imports, calls of ``main`` and ``python -m fieldlab`` register it once."""
    out = stdout_of(
        "import atexit, gc, runpy\n"
        "funcs, register = [], atexit.register\n"
        "atexit.register = lambda func, *a, **k: (funcs.append(func), register(func, *a, **k))[1]\n"
        f"import fieldlab.cli\n{RUN}\n{RUN}\nimport fieldlab, fieldlab.cli\n"
        "sys.argv[1:] = ['run', sys.argv[1], '--out', sys.argv[2]]\n"
        "try:\n"
        "    runpy.run_module('fieldlab', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print(funcs.count(gc.freeze))",
        str(CONFIGS / "legendre_free.json"), str(tmp_path / "out"))
    assert out.splitlines()[-1] == "1"


def test_stamp_falls_back_to_hashlib_without_the_builtin_module():
    """An interpreter built without ``_sha2`` and ``_sha256`` stamps through hashlib."""
    modules_after("sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                  "import fieldlab.cli, hashlib\n"
                  "assert fieldlab.cli.sha256 is hashlib.sha256")


def test_surface_crank_nicolson_loads_no_scipy(tmp_path):
    """The surface CN integrator takes exact Cayley steps on Q x Q blocks, with no GMRES."""
    config = json.loads((CONFIGS / "surface_sweeps.json").read_text())
    config["surface"]["integrator"] = "crank_nicolson"
    path = tmp_path / "cn_surface.json"
    path.write_text(json.dumps(config))
    assert scipy_modules_after(RUN, str(path), str(tmp_path / "out")) == []
    report = json.loads((tmp_path / "out" / "integrability.json").read_text())
    assert len(report["ratios"]) == 2
    assert all(ratio >= config["surface"]["ratio_floor"] for ratio in report["ratios"])
    assert report["flags"] == []


def test_classical_and_cn_runs_load_scipy_when_needed(tmp_path):
    """No scipy module after classical (scipy's LAPACK extension only) or flat CN (numpy Lanczos)."""
    classical = scipy_modules_after(RUN, str(CONFIGS / "classical_oscillator.json"),
                                    str(tmp_path / "classical"))
    assert classical == []
    assert json.loads((tmp_path / "classical" / "residuals.json").read_text())["n_rows"] == 1000

    config = json.loads((CONFIGS / "evolve_coherent.json").read_text())
    config["evolve"].update(method="crank_nicolson", steps=4, log_every=2)
    path = tmp_path / "cn.json"
    path.write_text(json.dumps(config))
    assert scipy_modules_after(RUN, str(path), str(tmp_path / "cn")) == []
    rows = (tmp_path / "cn" / "trajectory.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    assert all(abs(float(row.split(",")[1]) - 1.0) < 1e-9 for row in rows)


def test_solve_extremal_factorizes_through_the_module_attribute(monkeypatch, free_lagr):
    """A wrapper installed on the cached LAPACK handle's dgbtrf sees every factorization."""
    handle = fieldlab.classical._flapack()
    calls = []
    real = handle.dgbtrf

    def counting(ab, kl, ku, *args, **kwargs):
        calls.append((ab.shape, kl, ku))
        return real(ab, kl, ku, *args, **kwargs)

    monkeypatch.setattr(handle, "dgbtrf", counting)
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.1, -0.2), (0.3, 0.0))
    sol = solve_extremal(bd, free_lagr, 0.05)
    # two sites: half-bandwidth 2n - 1 = 3, so 3b + 1 = 10 storage rows
    assert calls == [((10, 2 * (sol.n_rows - 1)), 3, 3)]
    assert np.isfinite(sol.action)
