"""Self-check of the benchmark harness; run from the root of a checkout:

    python3 bench/selfcheck.py

1. The correctness checks accept real outputs and reject corrupted copies of
   them: a norm off by 1e-6, a path-integral identity error of 1e-9, and a
   non-finite value in a CSV, a JSON and a binary state file.
2. Every workload runs end to end at tiny sizes (``--tiny``), timed and
   traced.  The result line has exactly the keys correct, attempted, failed
   and metrics.  The ``BENCHMARK.json`` workloads have no failing
   experiment; ``classical-hj-curved`` fails exactly its known
   curved-boundary Hamilton-Jacobi ones.
3. A traced run repeats its counts exactly for one seed, and a second seed
   keeps the structure: the same metric names, sizes, steps and dims.

Prints each problem and exits 1 if there is any; takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

# Known program defect: on curved boundaries the Hamilton-Jacobi
# relations fail for Lagrangians with a zx^2 term.  Update once it is fixed.
EXPECTED_FAILURES = {"classical-hj-curved": {f"classical-curved-{pair}-{kind}"
                                             for pair in "ab" for kind in ("free", "quartic")}}


def run_tiny_child(exp, scratch: Path) -> Path:
    config_path, out = run.prepare(exp, scratch)
    rec = run.run_child([sys.executable, str(run.BENCH / "child.py"), str(scratch / "ready"),
                         "run", str(config_path), "--out", str(out)], scratch, os.environ)
    if rec["exit"] != 0:
        raise RuntimeError(f"{exp.name} exited {rec['exit']}: {rec['stderr']}")
    return out


def _rewrite_csv(path: Path, column: int, value) -> None:
    """Replace one cell of the last data row."""
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[column] = repr(value(float(cells[column])))
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _nan_amplitude(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[40:48] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))


def corrupted_outputs(problems: list[str]) -> None:
    exps = {e.name: e for e in workloads.experiments("dense-truth", 1, run.ROOT, tiny=True)}
    cases = [
        ("evolve-exact", "norm off by 1e-6", "trajectory.csv",
         lambda p: _rewrite_csv(p, 1, lambda norm: norm + 1e-6)),
        ("evolve-exact", "non-finite energy", "trajectory.csv",
         lambda p: _rewrite_csv(p, 2, lambda _: float("nan"))),
        ("evolve-exact", "non-finite amplitude", "final_state.bin", _nan_amplitude),
        ("feynman-identity", "identity error 1e-9", "comparison.json",
         lambda p: _rewrite_json(p, lambda d: d["identity"].update(max_abs_err=1e-9))),
        ("feynman-identity", "non-finite distance", "comparison.json",
         lambda p: _rewrite_json(p, lambda d: d["distances"].__setitem__(0, "nan"))),
    ]
    base = run.WORK / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    outputs = {}
    for name in sorted({case[0] for case in cases}):
        exp = exps[name]
        outputs[name] = run_tiny_child(exp, base / name)
        found = checks.check_outputs(workloads.command(exp.config), exp.config, outputs[name])
        if found:
            problems.append(f"clean {name} outputs rejected: {found}")
    for name, what, filename, corrupt in cases:
        exp = exps[name]
        copy = base / f"{name}-{what.replace(' ', '-')}"
        shutil.copytree(outputs[name], copy)
        corrupt(copy / filename)
        found = checks.check_outputs(workloads.command(exp.config), exp.config, copy)
        print(f"corrupted {name} ({what}): {'rejected' if found else 'ACCEPTED'} {found}")
        if not found:
            problems.append(f"corrupted {name} output ({what}) was accepted")
    shutil.rmtree(base)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--tiny"], capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def tiny_workloads(problems: list[str]) -> None:
    for workload in workloads.WORKLOADS + workloads.DEFECT_WORKLOADS:
        for trace in (0, 1):
            result, text = bench(workload, 1, trace)
            print(f"tiny {workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(result['metrics'])}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            failing = {line.split()[1].rstrip(":") for line in text.splitlines()
                       if line.startswith("  FAILED ")}
            expected = EXPECTED_FAILURES.get(workload, set())
            if failing != expected:
                problems.append(f"{workload} trace={trace}: failing {sorted(failing)}, "
                                f"expected {sorted(expected)}")
            if result["correct"] != (not expected):
                problems.append(f"{workload} trace={trace}: correct={result['correct']}")


def repeatability(problems: list[str]) -> None:
    workload = "dense-truth"
    first, _ = bench(workload, 1, 1)
    again, _ = bench(workload, 1, 1)
    other, _ = bench(workload, 2, 1)

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    if counts(first) != counts(again):
        problems.append(f"{workload}: counts differ between two runs of seed 1")
    if set(first["metrics"]) != set(other["metrics"]):
        problems.append(f"{workload}: metric names differ between seeds 1 and 2")
    for workload in workloads.WORKLOADS:
        shapes = [{e.name: workloads.structure(e.config)
                   for e in workloads.experiments(workload, seed, run.ROOT)} for seed in (1, 2)]
        if shapes[0] != shapes[1]:
            problems.append(f"{workload}: sizes, steps or dims differ between seeds 1 and 2")
    print(f"repeatability: {len(counts(first))} counts compared")


def main() -> int:
    problems: list[str] = []
    corrupted_outputs(problems)
    tiny_workloads(problems)
    repeatability(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
