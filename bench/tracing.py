"""Layer tracing for the benchmark, installed from outside the package.

The tracer replaces public functions of ``lyubich_lab`` modules (and every
``from``-imported alias of them inside the package) with thin wrappers that
record a span per call: its duration, and the part of it covered by child
spans, so that a layer's self time is duration minus children.  Spans are
aggregated in memory per name as (calls, total seconds, self seconds) plus
named counters; nothing is written until the run ends.

The wrappers exist only between ``install()`` and ``restore()``.  Every
replaced attribute is put back exactly as it was, so untraced runs in the
same process execute the package's own functions.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# Marker set on every wrapper, so a test can prove none is left behind.
MARKER = "__bench_span__"


def _cluster_merges(tracer, args, kwargs, result):
    points = args[0]
    include_inf = kwargs.get("include_infinity", args[3] if len(args) > 3 else 0)
    candidates = len(points) + (1 if include_inf > 0 else 0)
    tracer.counters["fiber.cluster_merges"] += candidates - len(result)


def _tree_atoms(tracer, args, kwargs, result):
    tracer.counters["preimage_solver.atoms"] += sum(lvl.size for lvl in result.levels)


def _result_bytes(tracer, args, kwargs, result):
    tracer.counters["operator_lab.dense_bytes_computed"] += result.nbytes


def _arg_bytes(position):
    def hook(tracer, args, kwargs, result):
        tracer.counters["operator_lab.dense_bytes_computed"] += args[position].nbytes
    return hook


class Tracer:
    """Span and counter aggregation over one traced region."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total_s, self_s
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    def reset(self) -> None:
        """Forget what was recorded so far; the wrappers stay installed."""
        self.stats.clear()
        self.counters.clear()

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name, fn, hook=None, collapse_recursion=False):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if collapse_recursion and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function of the package, aliases included."""
        from lyubich_lab import (_fiber, bimodule_basis, lyubich_measure,
                                 operator_lab, preimage_solver, rational_map,
                                 roots, transfer_operator)

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "lyubich_lab" or key.startswith("lyubich_lab.")]

        def everywhere(fn, name, hook=None, collapse_recursion=False):
            wrapper = self._wrap(name, fn, hook, collapse_recursion)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

        everywhere(roots.aberth_roots, "roots.aberth")
        everywhere(roots.polish_root, "roots.polish")
        everywhere(roots.companion_roots, "roots.companion")
        everywhere(_fiber.solve_fiber, "fiber.solve")
        everywhere(_fiber.cluster_points, "fiber.cluster", _cluster_merges)
        # The transfer operator's own alias of ``preimages`` is its cache
        # miss path, so it gets a name of its own.  It is wrapped first, and
        # the scan for the other aliases then no longer finds it.
        self._set(transfer_operator, "preimages",
                  self._wrap("transfer_operator.fiber_miss",
                             transfer_operator.preimages))
        everywhere(preimage_solver.preimages, "preimage_solver.preimages")
        everywhere(preimage_solver.iterated_preimages, "preimage_solver.tree",
                   _tree_atoms)
        everywhere(preimage_solver.sampled_tree, "preimage_solver.tree",
                   _tree_atoms)
        everywhere(lyubich_measure.pushforward, "lyubich_measure.pushforward")
        everywhere(lyubich_measure.measure_match_defect, "lyubich_measure.match")
        everywhere(lyubich_measure.integrate, "lyubich_measure.integrate")
        everywhere(rational_map.evaluate_array, "rational_map.evaluate_array")
        everywhere(transfer_operator.cached_fiber, "transfer_operator.cached_fiber")
        everywhere(transfer_operator.apply_transfer, "transfer_operator.apply_transfer")
        everywhere(transfer_operator.transfer_power, "transfer_operator.transfer_power",
                   collapse_recursion=True)
        everywhere(bimodule_basis.julia_sample, "bimodule_basis.julia_sample")
        everywhere(bimodule_basis.branch_separation_radius,
                   "bimodule_basis.separation_radius")
        everywhere(bimodule_basis.build_basis, "bimodule_basis.build_basis")
        self._set(bimodule_basis.PartitionOfUnity, "member_matrix",
                  self._wrap("bimodule_basis.member_matrix",
                             bimodule_basis.PartitionOfUnity.member_matrix))
        everywhere(operator_lab.build_model, "operator_lab.build_model")
        for fn in (operator_lab.verify_isometry, operator_lab.verify_covariance,
                   operator_lab.verify_representation, operator_lab.verify_key_lemma,
                   operator_lab.verify_frame_bound,
                   operator_lab.verify_vanishing_reconstruction):
            everywhere(fn, "operator_lab." + fn.__name__[len("verify_"):])
        # Dense matrices the model materialises; their bytes are computed
        # from array sizes, not measured traffic.
        model_cls = operator_lab.OperatorModel
        for attr in ("composition_matrix", "adjoint_matrix"):
            self._set(model_cls, attr,
                      self._wrap("operator_lab." + attr, getattr(model_cls, attr),
                                 _result_bytes))
        self._set(model_cls, "weighted_norm",
                  self._wrap("operator_lab.weighted_norm", model_cls.weighted_norm,
                             _arg_bytes(2)))
        everywhere(operator_lab._frame_matrix, "operator_lab.frame_matrix",
                   _result_bytes)
        # operator_lab reaches the eigensolver as ``np.linalg.eigvalsh``.
        self._set(np.linalg, "eigvalsh",
                  self._wrap("operator_lab.eigvalsh", np.linalg.eigvalsh,
                             _arg_bytes(0)))

    def restore(self) -> None:
        """Put back every replaced attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def counter(self, name) -> float:
        return self.counters.get(name, 0.0)


def wrappers_installed() -> list:
    """Names of every benchmark wrapper still reachable from the package."""
    from lyubich_lab import bimodule_basis, operator_lab

    found = []
    owners = [m for key, m in sorted(sys.modules.items())
              if key == "lyubich_lab" or key.startswith("lyubich_lab.")]
    owners += [bimodule_basis.PartitionOfUnity, operator_lab.OperatorModel, np.linalg]
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, MARKER):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


LAYER_METRICS = [
    # name, unit
    ("roots.aberth_s", "s"), ("roots.aberth_calls", "count"),
    ("roots.polish_s", "s"), ("roots.polish_calls", "count"),
    ("roots.companion_fallbacks", "count"),
    ("fiber.solve_s", "s"), ("fiber.solve_calls", "count"),
    ("fiber.self_s", "s"), ("fiber.cluster_s", "s"),
    ("fiber.cluster_merges", "count"),
    ("preimage_solver.tree_s", "s"), ("preimage_solver.atoms", "count"),
    ("preimage_solver.assembly_self_s", "s"),
    ("lyubich_measure.pushforward_s", "s"), ("lyubich_measure.match_s", "s"),
    ("lyubich_measure.integrate_s", "s"),
    ("rational_map.evaluate_array_s", "s"),
    ("transfer_operator.cached_fiber_calls", "count"),
    ("transfer_operator.fiber_misses", "count"),
    ("transfer_operator.hit_ratio", "ratio"),
    ("transfer_operator.apply_transfer_s", "s"),
    ("transfer_operator.transfer_power_s", "s"),
    ("bimodule_basis.julia_sample_s", "s"),
    ("bimodule_basis.separation_radius_s", "s"),
    ("bimodule_basis.build_basis_s", "s"),
    ("bimodule_basis.member_matrix_s", "s"),
    ("bimodule_basis.member_matrix_calls", "count"),
    ("operator_lab.build_model_s", "s"),
    ("operator_lab.isometry_s", "s"), ("operator_lab.covariance_s", "s"),
    ("operator_lab.representation_s", "s"), ("operator_lab.key_lemma_s", "s"),
    ("operator_lab.frame_bound_s", "s"),
    ("operator_lab.vanishing_reconstruction_s", "s"),
    ("operator_lab.eigvalsh_s", "s"), ("operator_lab.eigvalsh_calls", "count"),
    ("operator_lab.dense_bytes_computed", "B"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


def layer_values(tracer: Tracer) -> dict:
    """Raw per-layer totals of one traced region (before any averaging)."""
    t = tracer
    values = {
        "roots.aberth_s": t.total("roots.aberth"),
        "roots.aberth_calls": t.calls("roots.aberth"),
        "roots.polish_s": t.total("roots.polish"),
        "roots.polish_calls": t.calls("roots.polish"),
        "roots.companion_fallbacks": t.calls("roots.companion"),
        "fiber.solve_s": t.total("fiber.solve"),
        "fiber.solve_calls": t.calls("fiber.solve"),
        "fiber.self_s": t.self_time("fiber.solve"),
        "fiber.cluster_s": t.total("fiber.cluster"),
        "fiber.cluster_merges": t.counter("fiber.cluster_merges"),
        "preimage_solver.tree_s": t.total("preimage_solver.tree"),
        "preimage_solver.atoms": t.counter("preimage_solver.atoms"),
        "preimage_solver.assembly_self_s": t.self_time("preimage_solver.tree"),
        "lyubich_measure.pushforward_s": t.total("lyubich_measure.pushforward"),
        "lyubich_measure.match_s": t.total("lyubich_measure.match"),
        "lyubich_measure.integrate_s": t.total("lyubich_measure.integrate"),
        "rational_map.evaluate_array_s": t.total("rational_map.evaluate_array"),
        "transfer_operator.cached_fiber_calls": t.calls("transfer_operator.cached_fiber"),
        "transfer_operator.fiber_misses": t.calls("transfer_operator.fiber_miss"),
        "transfer_operator.apply_transfer_s": t.total("transfer_operator.apply_transfer"),
        "transfer_operator.transfer_power_s": t.total("transfer_operator.transfer_power"),
        "bimodule_basis.julia_sample_s": t.total("bimodule_basis.julia_sample"),
        "bimodule_basis.separation_radius_s": t.total("bimodule_basis.separation_radius"),
        "bimodule_basis.build_basis_s": t.total("bimodule_basis.build_basis"),
        "bimodule_basis.member_matrix_s": t.total("bimodule_basis.member_matrix"),
        "bimodule_basis.member_matrix_calls": t.calls("bimodule_basis.member_matrix"),
        "operator_lab.build_model_s": t.total("operator_lab.build_model"),
        "operator_lab.eigvalsh_s": t.total("operator_lab.eigvalsh"),
        "operator_lab.eigvalsh_calls": t.calls("operator_lab.eigvalsh"),
        "operator_lab.dense_bytes_computed": t.counter("operator_lab.dense_bytes_computed"),
    }
    for identity in ("isometry", "covariance", "representation", "key_lemma",
                     "frame_bound", "vanishing_reconstruction"):
        values[f"operator_lab.{identity}_s"] = t.total("operator_lab." + identity)
    return values
