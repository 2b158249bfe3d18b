"""In-process spans around the public functions of the fieldlab modules.

`Tracer.install` wraps every public function, public method and
source-defined ``__init__`` of the traced modules, and rebinds each wrapped
function wherever a fieldlab module holds it by name (``cli`` imports most
of them with ``from ... import``).  Spans stay in memory as
``[name, start, end, parent]`` and are written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from statistics import median

MODULES = ("cli", "lagrangian", "lattice", "operators", "evolve", "surface",
           "feynman", "classical")


def _histories(args, kwargs, result) -> int:
    """Q^(N(t+1)) free-slice histories for each of the Q^N final configurations."""
    cfg, pspec = args[0].cfg, args[1]
    return cfg.q_points ** (cfg.n_sites * (pspec.t_steps + 1)) * cfg.dim


# per-span work units, recorded next to the span
MEASURES = {
    "operators.LatticeHamiltonian.apply": lambda a, k, r: a[1].size,
    "evolve.evolve_strang": lambda a, k, r: a[2].steps,
    "feynman.brute_force_amplitudes": _histories,
    "lattice.save_state": lambda a, k, r: os.path.getsize(a[1]),
    "lattice.state_to_csv": lambda a, k, r: os.path.getsize(a[1]),
    "lattice.load_state": lambda a, k, r: os.path.getsize(a[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.units: dict[int, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, units = self.spans, self._stack, self.units
        measure = MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                units[idx] = measure(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fieldlab.{name}") for name in MODULES}
        wrapped = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[id(value)] = self.wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    self._wrap_methods(short, value)
        # rebind every name a fieldlab module (or the package) holds for a wrapped function
        holders = [m for n, m in sys.modules.items() if n == "fieldlab" or n.startswith("fieldlab.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(holder, attr, wrapped[id(value)])
        # classical factorizes through the scipy module attribute at call time
        spla = importlib.import_module("scipy.sparse.linalg")
        self._set(spla, "splu", self.wrap("classical.splu", spla.splu))

    def _wrap_methods(self, short: str, cls) -> None:
        source = inspect.getsourcefile(cls)
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue  # properties, classmethods and staticmethods stay as they are
            own_init = attr == "__init__" and value.__code__.co_filename == source
            if own_init or not attr.startswith("_"):
                self._set(cls, attr, self.wrap(f"{short}.{cls.__name__}.{attr}", value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _inside(spans, idx: int, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], units: dict[int, int], lo: int = 0,
                  hi: int | None = None) -> dict[str, float]:
    """Per-layer times (s) and counts over spans[lo:hi]."""
    hi = len(spans) if hi is None else hi
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    layer_self = {m: 0.0 for m in MODULES}
    layer_calls = {m: 0 for m in MODULES}
    pair_builds = cn_matvecs = 0
    for i in range(lo, hi):
        name, start, end = spans[i][:3]
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + units.get(i, 0)
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[i]
        layer_calls[layer] += 1
        if name == "operators.LatticeHamiltonian.dense_matrix":
            pair_builds += _inside(spans, i, "surface.SurfaceEvolver.deform_step")
        elif name == "operators.LatticeHamiltonian.apply":
            cn_matvecs += _inside(spans, i, "evolve.crank_nicolson_step")

    def t(key):
        return total.get(key, 0.0)

    def n(key):
        return calls.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    apply_points = work.get("operators.LatticeHamiltonian.apply", 0)
    histories = work.get("feynman.brute_force_amplitudes", 0)
    io = ("lattice.save_state", "lattice.load_state", "lattice.state_to_csv")
    m = {}
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.calls"] = layer_calls[layer]
    m.update({
        "lagrangian.parse_s": t("lagrangian.parse_lagrangian"),
        "lagrangian.legendre_s": t("lagrangian.legendre_transform"),
        "lattice.init_s": t("lattice.init_wavefunctional"),
        "lattice.io_s": sum(t(k) for k in io),
        "lattice.io_bytes": sum(work.get(k, 0) for k in io),
        "operators.compile_s": t("operators.compile_hamiltonian"),
        "operators.compile_calls": n("operators.compile_hamiltonian"),
        "operators.apply_s": t("operators.LatticeHamiltonian.apply"),
        "operators.apply_calls": n("operators.LatticeHamiltonian.apply"),
        "operators.apply_points": apply_points,
        "operators.apply_ns_per_point":
            ratio(1e9 * t("operators.LatticeHamiltonian.apply"), apply_points),
        "operators.dense_matrix_s": own.get("operators.LatticeHamiltonian.dense_matrix", 0.0),
        "operators.dense_matrix_calls": n("operators.LatticeHamiltonian.dense_matrix"),
        "evolve.exact_setup_s": t("evolve.ExactPropagator.__init__"),
        "evolve.exact_setup_calls": n("evolve.ExactPropagator.__init__"),
        "evolve.exact_propagate_s": t("evolve.ExactPropagator.propagate"),
        "evolve.strang_s": t("evolve.evolve_strang"),
        "evolve.strang_steps": work.get("evolve.evolve_strang", 0),
        "evolve.cn_step_s": own.get("evolve.crank_nicolson_step", 0.0),
        "evolve.cn_steps": n("evolve.crank_nicolson_step"),
        "evolve.cn_matvecs_per_step": ratio(cn_matvecs, n("evolve.crank_nicolson_step")),
        "surface.deform_step_s": own.get("surface.SurfaceEvolver.deform_step", 0.0),
        "surface.deform_steps": n("surface.SurfaceEvolver.deform_step"),
        "surface.pair_builds": pair_builds,
        "feynman.transfer_setup_s": t("feynman.TransferOperator.__init__"),
        "feynman.transfer_step_s": t("feynman.TransferOperator.step"),
        "feynman.transfer_steps": n("feynman.TransferOperator.step"),
        "feynman.brute_force_s": t("feynman.brute_force_amplitudes"),
        "feynman.histories": histories,
        "feynman.ns_per_history": ratio(1e9 * t("feynman.brute_force_amplitudes"), histories),
        "classical.solve_extremal_s": own.get("classical.solve_extremal", 0.0),
        "classical.solve_calls": n("classical.solve_extremal"),
        "classical.splu_s": t("classical.splu"),
        "classical.lu_factorizations": n("classical.splu"),
        "classical.factorizations_per_solve":
            ratio(n("classical.splu"), n("classical.solve_extremal")),
    })
    return m


def per_root(spans: list[list], units: dict[int, int]) -> list[dict[str, float]]:
    """layer_metrics for each top-level span (one cli.main call per experiment)."""
    roots = [i for i, span in enumerate(spans) if span[3] < 0] + [len(spans)]
    return [layer_metrics(spans, units, lo, hi) for lo, hi in zip(roots, roots[1:])]


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(s[key] for s in samples) for key in samples[0]}
