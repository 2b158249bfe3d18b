"""fieldlab benchmark: seeded `fieldlab run` workloads, timed end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload dense-truth --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's experiments round-robin, each in a fresh
child process, until the next one would overrun ``--seconds``, and reports
run_s, setup_s, cpu_s and peak_rss_mb for the median pass.
``--trace 1`` runs the same experiments in-process, alternating an untraced
and a traced pass, and reports per-layer times and counts from the spans.
``--tiny`` shrinks every generated experiment so a pass takes seconds.

Human-readable lines (with provenance and failures) come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import select
import shutil
import signal
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # single-threaded baseline, before numpy can load here or in a child
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0
IMPORT_SAMPLES = 3
E2E_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SCALED = ("run_s", "setup_s", "cpu_s")  # times scaled to the reference machine speed
REFERENCE_S = 0.1  # the reference mix's time at the speed the scaled times are quoted in
MIN_TAIL = 10  # a reported percentile needs this many samples above it


# --- shared helpers ------------------------------------------------------------

def tail_percentile(values: list[float]):
    """Highest whole percentile with at least MIN_TAIL samples above it, or None."""
    n = len(values)
    if n <= MIN_TAIL:
        return None
    ordered = sorted(values)
    pct = math.floor(100 * (n - MIN_TAIL) / n)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return f"unresolved {ref[5:]}"
    return ref


LIBRARY_PROBE = """
import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:  # numpy < 1.25 has no dict mode
    vendor = f"unknown ({type(exc).__name__})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": vendor}))
"""


def provenance(workload: str, seed: int, exps, env) -> dict:
    probe = run_child([sys.executable, "-c", LIBRARY_PROBE], WORK / f"run-{os.getpid()}" / "probe",
                      env)
    libs = json.loads(probe["stdout"]) if probe["exit"] == 0 else {"error": probe["stderr"]}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {var: env.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        **libs,
        "git_commit": git_commit(),
        "structure": {e.name: workloads.structure(e.config) for e in exps},
    }


def run_child(argv: list[str], scratch: Path, env, ready: Path | None = None) -> dict:
    """Spawn one child, wait for it, and return wall, set-up, CPU and peak RSS.

    Output goes to files in ``scratch``; a child that outlives CHILD_TIMEOUT_S
    is killed and reported with exit code -9.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    spawned = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: leave no child behind, then re-raise
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    ended = time.monotonic()
    record = {
        "wall_s": ended - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        "exit": os.waitstatus_to_exitcode(status),
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text()[-2000:],
    }
    if ready is not None:
        # no ready file: the child died importing, so all of its time was set-up
        record["setup_s"] = (float(ready.read_text()) - spawned if ready.is_file()
                             else record["wall_s"])
    return record


def prepare(exp, scratch: Path) -> tuple[Path, Path]:
    """Config path and a fresh, empty --out directory for one experiment."""
    scratch.mkdir(parents=True, exist_ok=True)
    if exp.source is not None:
        config_path = exp.source
    else:
        config_path = scratch / "config.json"
        config_path.write_text(json.dumps(exp.config, indent=1))
    return config_path, scratch / "out"


def verdict(exp, exit_code: int, out: Path, stderr: str) -> list[str]:
    if exit_code != 0:
        last = stderr.strip().splitlines()[-1:]
        return [f"exit code {exit_code}: {last[0] if last else 'no message'}"]
    return checks.check_outputs(workloads.command(exp.config), exp.config, out)


# --- timed mode (--trace 0) ---------------------------------------------------

def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter loop, FFT and eigh work, in this process.

    It runs no fieldlab code, so it gauges only how fast the shared machine
    is at the moment: the timed metrics are scaled by it (see timed_run).
    """
    import numpy as np

    began = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i % 7
    state = np.exp(-np.linspace(-4.0, 4.0, 32768) ** 2).astype(complex)
    for _ in range(36):
        state = np.fft.ifft(np.fft.fft(state) * 0.5)
    grid = np.arange(160.0)
    for _ in range(3):
        np.linalg.eigh(np.cos(np.add.outer(grid, grid)))
    return time.perf_counter() - began


def timed_experiment(exp, tag: str, env) -> dict:
    scratch = WORK / f"run-{os.getpid()}" / f"{tag}-{exp.name}"
    config_path, out = prepare(exp, scratch)
    ready = scratch / "ready"
    rec = run_child([sys.executable, str(BENCH / "child.py"), str(ready), "run",
                     str(config_path), "--out", str(out)], scratch, env, ready)
    rec["name"] = exp.name
    rec["failures"] = verdict(exp, rec["exit"], out, rec["stderr"])
    del rec["stdout"], rec["stderr"]
    shutil.rmtree(scratch)
    return rec


def timed_run(exps, seconds: float, env):
    """Experiments round-robin until the next one would overrun ``seconds``.

    At least one full pass runs; after it, a pass may stop part-way, so no
    time at the end of the run is left unmeasured.  A metric's raw value is
    the sum over the experiments of each one's median across its runs: the
    median pass, with a slow spell of the shared machine in one experiment
    of one pass rejected.  Totals of the full passes are kept as the samples
    behind it.

    The reference mix runs before every experiment.  The times are reported
    scaled by REFERENCE_S / (median reference time of the run), that is, in
    seconds of a machine on which the mix takes REFERENCE_S: a shared host
    that runs slower for minutes slows the reference as much as the
    experiments, and the scaled times do not move.
    """
    start = time.monotonic()
    passes: list[list[dict]] = []
    references: list[float] = []
    latest: dict[str, float] = {}  # each experiment's last wall time forecasts its next
    reference_seconds()  # warm-up: imports numpy and fills its caches
    for i in itertools.count():
        exp = exps[i % len(exps)]
        if i >= len(exps) and (time.monotonic() - start + references[-1]
                               + latest[exp.name] > seconds):
            break
        if i % len(exps) == 0:
            passes.append([])
        references.append(reference_seconds())
        rec = timed_experiment(exp, f"p{len(passes) - 1}", env)
        latest[exp.name] = rec["wall_s"]
        passes[-1].append(rec)
    full = [p for p in passes if len(p) == len(exps)]
    speed = {"reference_s": median(references), "samples": len(references)}
    speed["scale"] = REFERENCE_S / speed["reference_s"]

    def median_pass(key):
        return sum(median(p[i][key] for p in passes if len(p) > i) for i in range(len(exps)))

    raw = {
        "run_s": median_pass("wall_s"),
        "setup_s": median_pass("setup_s"),
        "cpu_s": median_pass("cpu_s"),
        "peak_rss_mb": median(max(r["rss_mb"] for r in p) for p in full),
    }
    per_pass = {
        "run_s": [sum(r["wall_s"] for r in p) for p in full],
        "setup_s": [sum(r["setup_s"] for r in p) for p in full],
        "cpu_s": [sum(r["cpu_s"] for r in p) for p in full],
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in full],
    }
    for key in SCALED:
        per_pass[key] = [v * speed["scale"] for v in per_pass[key]]
    metrics = {k: v * speed["scale"] if k in SCALED else v for k, v in raw.items()}
    return metrics, raw, speed, per_pass, passes


# --- traced mode (--trace 1) --------------------------------------------------

def import_seconds(env) -> list[float]:
    samples = []
    for i in range(IMPORT_SAMPLES):
        scratch = WORK / f"run-{os.getpid()}" / f"import-{i}"
        ready = scratch / "ready"
        rec = run_child([sys.executable, str(BENCH / "child.py"), str(ready)], scratch, env, ready)
        samples.append(rec["setup_s"])
        shutil.rmtree(scratch)
    return samples


def inprocess_pass(cli, exps, tag: str) -> tuple[float, list[dict]]:
    """Run each experiment through cli.main in this process; return summed wall time."""
    wall = 0.0
    records = []
    for exp in exps:
        scratch = WORK / f"run-{os.getpid()}" / f"{tag}-{exp.name}"
        config_path, out = prepare(exp, scratch)
        with open(scratch / "stdout.txt", "w") as sink, contextlib.redirect_stdout(sink):
            began = time.monotonic()
            try:
                code = cli.main(["run", str(config_path), "--out", str(out)])
                detail = ""
            except Exception as exc:  # an escaped exception is the CLI's exit code 1
                code, detail = 1, f"{type(exc).__name__}: {exc}"
            wall += time.monotonic() - began
        records.append({"name": exp.name, "failures": verdict(exp, code, out, detail)})
        shutil.rmtree(scratch)
    return wall, records


def traced_run(exps, warmup, seconds: float, env):
    """Pairs of untraced and traced in-process passes, order alternating per pair."""
    import tracer

    sys.path.insert(0, str(ROOT / "src"))
    import fieldlab.cli as cli

    start = time.monotonic()
    import_s = import_seconds(env)
    # first calls load lazy scipy modules and BLAS state; keep that out of the pairs
    inprocess_pass(cli, warmup, "warm")
    overheads, layer_samples, records = [], [], []
    while True:
        began = time.monotonic()
        k = len(overheads)
        walls = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            with tracer.Tracer() if traced else contextlib.nullcontext() as tr:
                walls[traced], recs = inprocess_pass(cli, exps, f"{'t' if traced else 'u'}{k}")
            records.extend(recs)
            if traced:
                layer_samples.append(tracer.layer_metrics(tr.spans, tr.units))
                per_experiment = {exp.name: experiment_counts(exp, m)
                                  for exp, m in zip(exps, tracer.per_root(tr.spans, tr.units))}
                spans = tr.spans
        overheads.append((walls[True] - walls[False]) / walls[False])
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            break
    metrics = tracer.median_metrics(layer_samples)
    builds = sum(c.get("pair_builds", 0) for c in per_experiment.values())
    useful = sum(c.get("distinct_slopes", 0) for c in per_experiment.values()
                 if "pair_builds" in c)
    metrics["surface.pair_build_useful_ratio"] = useful / builds if builds else 0.0
    metrics["cli.import_s"] = median(import_s)
    metrics["trace.overhead_frac"] = median(overheads)
    counts_repeat = all(_counts(s) == _counts(layer_samples[0]) for s in layer_samples)
    samples = {"layer": len(layer_samples), "cli.import_s": len(import_s),
               "trace.overhead_frac": len(overheads)}
    return metrics, records, per_experiment, spans, samples, counts_repeat


def _counts(sample: dict) -> dict:
    return {k: v for k, v in sample.items() if isinstance(v, int)}


def experiment_counts(exp, m: dict) -> dict:
    """The nonzero counts of one experiment, for its report line."""
    out = {"pair_builds": m["surface.pair_builds"],
           "deform_steps": m["surface.deform_steps"],
           "apply_calls": m["operators.apply_calls"],
           "cn_steps": m["evolve.cn_steps"],
           "cn_matvecs_per_step": m["evolve.cn_matvecs_per_step"],
           "exact_setup_calls": m["evolve.exact_setup_calls"],
           "histories": m["feynman.histories"],
           "solve_calls": m["classical.solve_calls"],
           "lu_factorizations": m["classical.lu_factorizations"]}
    if "surface" in exp.config and exp.config["surface"].get("integrator") == "exact":
        out["distinct_slopes"] = workloads.distinct_site_slopes(exp.config)
        out["pair_build_useful_ratio"] = (out["distinct_slopes"] / out["pair_builds"]
                                          if out["pair_builds"] else 0.0)
    return {k: v for k, v in out.items() if v}


# --- reporting ----------------------------------------------------------------

def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.split(".")[-1].startswith("ns_per_") or "_ns_per_" in name:
        return "ns"
    if name.endswith(("_ratio", "_frac")) or "_per_" in name:
        return "ratio"
    return "count"


def summarize_failures(records: list[dict]) -> dict[str, list[str]]:
    named: dict[str, list[str]] = {}
    for rec in records:
        for failure in rec["failures"]:
            named.setdefault(rec["name"], [])
            if failure not in named[rec["name"]]:
                named[rec["name"]].append(failure)
    return named


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> None:
    """Run one workload and print its report; the last line is the result JSON."""
    env = dict(os.environ)
    exps = workloads.experiments(workload, seed, ROOT, tiny=tiny)
    WORK.mkdir(exist_ok=True)
    try:
        prov = provenance(workload, seed, exps, env)
        if trace:
            warmup = workloads.experiments(workload, seed, ROOT, tiny=True)
            metrics, records, per_exp, spans, samples, repeat = traced_run(
                exps, warmup, seconds, env)
            prov["counts_repeat_across_passes"] = repeat
            per_pass = passes = raw = speed = None
        else:
            metrics, raw, speed, per_pass, passes = timed_run(exps, seconds, env)
            records = [r for p in passes for r in p]
            samples = {k: len(v) for k, v in per_pass.items()}
            per_exp = {e.name: {"wall_s": median(r["wall_s"] for r in records
                                                 if r["name"] == e.name),
                                "n": sum(1 for r in records if r["name"] == e.name)}
                       for e in exps}
            spans = None
    finally:
        shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)

    failed = sum(1 for r in records if r["failures"])
    failures = summarize_failures(records)
    units = E2E_UNITS if not trace else {k: layer_unit(k) for k in metrics}

    print(f"bench workload={workload} seed={seed} trace={trace} "
          f"tiny={tiny} experiments/pass={len(exps)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        n = samples.get(name, samples.get("layer"))
        line = f"  {name:36s} {value:14.6g} {units[name]:6s} n={n}"
        if per_pass is not None:
            tail = tail_percentile(per_pass[name])
            line += (f"  p{tail[0]}={tail[1]:.6g}" if tail
                     else f"  p_tail n/a (needs >{MIN_TAIL} samples)")
            if name in SCALED:
                line += f"  raw={raw[name]:.6g}"
        print(line)
    if speed is not None:
        print(f"  {'reference_s':36s} {speed['reference_s']:14.6g} s      n={speed['samples']}"
              f"  scale={speed['scale']:.6g} (times above are raw x scale)")
    print(f"  {'failed_frac':36s} {failed / len(records):14.6g} ratio  "
          f"({failed} of {len(records)} experiments)")
    for name, counts in per_exp.items():
        print(f"  experiment {name}: {json.dumps(counts, sort_keys=True)}")
    for name, problems in failures.items():
        for problem in problems:
            print(f"  FAILED {name}: {problem}")

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    detail = {"provenance": prov, "samples": samples, "raw_metrics": raw, "speed": speed,
              "per_pass": per_pass, "passes": passes,
              "per_experiment": per_exp, "failures": failures, "result": result}
    (results_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if spans is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + workloads.DEFECT_WORKLOADS + ("all",),
                        help="one workload, or all of BENCHMARK.json's one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes for a quick check")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fieldlab/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a fieldlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        run_workload(workload, args.seed, args.seconds, args.trace, args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
