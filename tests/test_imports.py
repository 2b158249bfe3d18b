"""scipy stays off the start-up path: only the classical solver and flat CN evolution load it."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import fieldlab
from fieldlab.classical import BoundaryData, solve_extremal

SRC = Path(fieldlab.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scipy_modules_after(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the scipy modules it left loaded."""
    probe = (f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


RUN = ("from fieldlab.cli import main\n"
       "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0")


@pytest.mark.parametrize("statement", ["import fieldlab", "import fieldlab.cli"])
def test_import_loads_no_scipy(statement):
    assert scipy_modules_after(statement) == []


@pytest.mark.parametrize("name", ["legendre_free", "evolve_coherent", "feynman_quartic",
                                  "surface_sweeps"])
def test_sample_run_loads_no_scipy(tmp_path, name):
    assert scipy_modules_after(RUN, str(CONFIGS / f"{name}.json"), str(tmp_path / "out")) == []


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
    classical = scipy_modules_after(RUN, str(CONFIGS / "classical_oscillator.json"),
                                    str(tmp_path / "classical"))
    assert "scipy.linalg.lapack" in classical
    assert not [m for m in classical if m.startswith("scipy.sparse")]
    assert json.loads((tmp_path / "classical" / "residuals.json").read_text())["n_rows"] == 1000

    config = json.loads((CONFIGS / "evolve_coherent.json").read_text())
    config["evolve"].update(method="crank_nicolson", steps=4, log_every=2)
    path = tmp_path / "cn.json"
    path.write_text(json.dumps(config))
    assert "scipy.sparse.linalg" in scipy_modules_after(RUN, str(path), str(tmp_path / "cn"))
    rows = (tmp_path / "cn" / "trajectory.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    assert all(abs(float(row.split(",")[1]) - 1.0) < 1e-9 for row in rows)


def test_solve_extremal_factorizes_through_the_module_attribute(monkeypatch, free_lagr):
    """A wrapper installed on scipy.linalg.lapack.dgbtrf sees every factorization."""
    calls = []
    real = lapack.dgbtrf

    def counting(ab, kl, ku, *args, **kwargs):
        calls.append((ab.shape, kl, ku))
        return real(ab, kl, ku, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgbtrf", counting)
    bd = BoundaryData((0.0, 0.0), (1.0, 1.0), (0.1, -0.2), (0.3, 0.0))
    sol = solve_extremal(bd, free_lagr, 0.05)
    # two sites: half-bandwidth 2n - 1 = 3, so 3b + 1 = 10 storage rows
    assert calls == [((10, 2 * (sol.n_rows - 1)), 3, 3)]
    assert np.isfinite(sol.action)
