"""The benchmark's three workloads and their correctness checks.

Each workload is driven in a closed loop by one client: the next
iteration starts only after the previous one returned.  ``setup`` builds
the inputs from the seed, ``iterate`` is the timed region and calls only
public functions of ``lyubich_lab``, and ``check``/``final_check`` judge
the outputs outside the timed region.  See NOTES.md for why each
workload exists and which layers it stresses.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance of the checks the benchmark adds itself: moments, two-path
# agreement, reconstruction and the sup-norm (relative) use the
# verification suite's two-path tolerance, invariance its invariance one.
TOL = 1e-10
INVARIANCE_TOL = 1e-8

_SPLIT_DOUBLE_ROOT = (
    "z^3-3z rooted at -2: the fiber (z-1)^2(z+2) has a double root that Aberth "
    "leaves ~1.4e-6 apart, above CLUSTER_RADIUS = 1e-6, so the tree carries two "
    "simple atoms where one double atom belongs (ROADMAP item 4)")

# Checks that a documented program defect makes fail, or puts at risk.
# They run and count like every other check, but their failure does not
# make the run incorrect (any other failure does), and they give no
# accuracy margin: the cubic's moments pass today with only ~1e-11 of
# error, a symptom of the same split double root.
KNOWN_DEFECTS = {
    ("tree_deep", "chebyshev/invariance"):
        "chebyshev z^2-2 at depth >= 13: level-(m-1) atoms near +-2 lie closer "
        "together than CLUSTER_RADIUS = 1e-6, so pushforward merges distinct "
        "atoms (8186 against 8192 at depth 14) and the match defect is inf",
    ("tree_deep", "cheb3/invariance"):
        _SPLIT_DOUBLE_ROOT + "; pushforward then has fewer atoms than the level",
    ("tree_deep", "cheb3/moment x^2"): _SPLIT_DOUBLE_ROOT,
    ("tree_deep", "cheb3/moment x^4"): _SPLIT_DOUBLE_ROOT,
}


@dataclass
class Sizes:
    tree_depth: int = 14
    cubic_depth: int = 9
    verify_depth: int = 9
    verify_kwargs: dict = field(default_factory=dict)
    transfer_power: int = 12
    transfer_polys: int = 8
    transfer_sample: int = 1000
    transfer_reconstructs: int = 2


FULL = Sizes()
# A few seconds in all: every code path of every workload, for the smoke test.
TINY = Sizes(tree_depth=6, cubic_depth=4, verify_depth=5,
             verify_kwargs=dict(trials=4, pairs=3, basis_count=8,
                                sample_size=128, unitality_points=40),
             transfer_power=5, transfer_polys=2, transfer_sample=60,
             transfer_reconstructs=1)


class Checks:
    """Every correctness check of a run, with accuracy margins."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records = []
        self.margins = []          # (check name, error, tolerance) of passing checks

    def check(self, name: str, passed: bool, detail: str = "",
              error: float | None = None, tol: float | None = None) -> None:
        passed = bool(passed)
        known = KNOWN_DEFECTS.get((self.workload, name))
        self.records.append({"check": name, "pass": passed, "detail": detail,
                             "known_failure": known if not passed else None})
        if passed and error is not None and known is None:
            self.margins.append((name, float(error), float(tol)))

    def within(self, name: str, error: float, tol: float) -> None:
        self.check(name, math.isfinite(error) and error <= tol,
                   f"error {error:.3e} vs tol {tol:.0e}", error, tol)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> list:
        return [r for r in self.records if not r["pass"]]

    @property
    def unexpected(self) -> list:
        return [r for r in self.failed if r["known_failure"] is None]

    def accuracy_digits(self) -> float:
        """Smallest log10(tolerance / error) over the passing accuracy checks.

        An error of exactly zero counts as 1e-16 of its tolerance, so the
        margin is capped at 16 digits.
        """
        digits = [math.log10(tol / max(err, tol * 1e-16)) for _, err, tol in self.margins]
        return min(digits) if digits else 16.0


@dataclass
class Iteration:
    """What one timed iteration returns to the harness."""

    result: object
    items: int                 # work items completed
    item_s: float | None       # seconds spent on them, None for the whole iteration
    ops: int                   # public calls made into the package


def _poly(lab, coeffs, name):
    return lab.TestFunction.polynomial(coeffs, name=name)


class Workload:
    """Set-up, timed iteration and checks of one workload."""

    name = ""
    item = ""

    def __init__(self, lab, sizes: Sizes, seed: int, probe):
        self.lab, self.sizes, self.seed, self.probe = lab, sizes, seed, probe

    def before_iteration(self) -> None:
        """Untimed preparation of each iteration."""

    def final_check(self, result, checks: Checks) -> None:
        """Checks run once per run, on the last iteration's result."""


# ----------------------------------------------------------------------


@dataclass
class TreeSpec:
    name: str
    rmap: object
    root: object
    depth: int
    oracles: list              # (label, TestFunction, exact value)


class TreeDeep(Workload):
    """Fully enumerated deep preimage trees, their measures and invariance."""

    name = "tree_deep"
    item = "tree atom"

    def setup(self) -> None:
        lab, s = self.lab, self.sizes
        rng = np.random.default_rng(self.seed)
        z1 = _poly(lab, {(1, 0): 1}, "z")
        z2 = _poly(lab, {(2, 0): 1}, "z^2")
        z4 = _poly(lab, {(4, 0): 1}, "z^4")
        abs2 = _poly(lab, {(1, 1): 1}, "|z|^2")
        re2 = _poly(lab, {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}, "Re(z)^2")
        quad = lab.builtin_map("quad")
        basilica = lab.builtin_map("basilica")
        cheb = lab.builtin_map("chebyshev")
        cubic = lab.RationalMap([0, -3, 0, 1], [1], name="cheb3")
        # quad is rooted at a seeded point of its Julia set, the unit
        # circle, where |z|^2 = 1 holds on every level and level-k atoms are
        # 2*pi/2^k apart.  The other maps keep their default roots: a root
        # of basilica near its critical value -1 crowds deep atoms within
        # CLUSTER_RADIUS, the mechanism of the chebyshev defect below.
        quad_root = complex(np.exp(2j * np.pi * rng.uniform()))
        specs = [
            TreeSpec("quad", quad, quad_root, s.tree_depth,
                     [("Re(z)^2", re2, 0.5), ("|z|^2", abs2, 1.0)]),
            TreeSpec("basilica", basilica, lab.default_root(basilica), s.tree_depth,
                     [("z", z1, 0.0), ("z^2", z2, 1.0)]),
            TreeSpec("chebyshev", cheb, lab.default_root(cheb), s.tree_depth,
                     [("x^2", z2, 2.0), ("x^4", z4, 6.0)]),
            TreeSpec("cheb3", cubic, lab.default_root(cubic), s.cubic_depth,
                     [("x^2", z2, 2.0), ("x^4", z4, 6.0)]),
        ]
        self.specs = [specs[i] for i in rng.permutation(len(specs))]

    def iterate(self) -> Iteration:
        lab = self.lab
        out = []
        tree_s = 0.0
        atoms = 0
        for spec in self.specs:
            with self.probe.span() as span:
                tree = lab.iterated_preimages(spec.rmap, spec.root, spec.depth)
            tree_s += span.seconds
            atoms += sum(tree.atom_count(k) for k in range(spec.depth + 1))
            mu = lab.measure_from_tree(tree)
            moments = [lab.integrate(mu, f) for _, f, _ in spec.oracles]
            pushed = lab.pushforward(mu, spec.rmap)
            level_below = lab.measure_from_tree(tree, spec.depth - 1)
            defect, exact = lab.measure_match_defect(pushed, level_below)
            out.append((spec, tree, mu, moments, pushed, defect, exact))
        ops = sum(5 + len(spec.oracles) for spec in self.specs)
        return Iteration(out, items=atoms, item_s=tree_s, ops=ops)

    def check(self, result, checks: Checks) -> None:
        for spec, tree, mu, moments, pushed, defect, exact in result:
            n = spec.rmap.degree
            sums_ok = all(int(tree.level(k).cum.sum()) == n ** k
                          for k in range(spec.depth + 1))
            checks.check(f"{spec.name}/level_sums", sums_ok, "level k sums to degree**k")
            try:
                mu.validate()
                pushed.validate()
                checks.check(f"{spec.name}/validate", True)
            except ValueError as exc:
                checks.check(f"{spec.name}/validate", False, str(exc))
            for (label, _, exact_value), value in zip(spec.oracles, moments):
                checks.within(f"{spec.name}/moment {label}", abs(value - exact_value),
                              TOL)
            checks.check(f"{spec.name}/invariance",
                         exact and defect <= INVARIANCE_TOL,
                         f"depth {spec.depth}: {pushed.size} pushed atoms vs "
                         f"{tree.atom_count(spec.depth - 1)} on the level below, "
                         f"defect {defect:.3e}, weights exact {exact}",
                         defect, INVARIANCE_TOL)


class VerifyDense(Workload):
    """The full identity suite on basilica, dominated by dense operator work."""

    name = "verify_dense"
    item = "identity record"

    def setup(self) -> None:
        self.rmap = self.lab.builtin_map("basilica")
        self.root = self.lab.default_root(self.rmap)

    def before_iteration(self) -> None:
        self.lab.transfer_operator.clear_fiber_cache()

    def iterate(self) -> Iteration:
        report = self.lab.verification_suite(self.rmap, self.root,
                                             m=self.sizes.verify_depth, seed=self.seed,
                                             **self.sizes.verify_kwargs)
        return Iteration(report, items=len(report["results"]), item_s=None, ops=1)

    def check(self, report, checks: Checks) -> None:
        for rec in report["results"]:
            checks.check(rec["identity"], rec["pass"],
                         f"residual {rec['residual']:.3e} vs tol {rec['tolerance']:.0e}",
                         rec["residual"], rec["tolerance"])
        checks.check("all_pass", report["all_pass"])


class TransferPointwise(Workload):
    """Pointwise transfer evaluations through the LRU fiber cache."""

    name = "transfer_pointwise"
    item = "transfer evaluation"

    def setup(self) -> None:
        lab, s = self.lab, self.sizes
        rng = np.random.default_rng(self.seed)
        rmap = lab.builtin_map("basilica")
        roots = [lab.default_root(rmap)]
        while len(roots) < 3:
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if not lab.is_exceptional(rmap, w):
                roots.append(lab.SpherePoint(w))
        # z^2 integrates to exactly 1 against every depth >= 2 measure of
        # z^2 - 1, so its transfer power has a closed-form answer.
        self.oracle = _poly(lab, {(2, 0): 1}, "z^2")
        self.polys = [lab.random_polynomial(rng, 2) for _ in range(s.transfer_polys)]
        self.sample = lab.julia_sample(rmap, s.transfer_sample, self.seed)
        self.sample_points = self.sample.sphere_points()
        self.basis = lab.default_basis(rmap, self.sample)
        self.rmap, self.roots = rmap, roots

    def before_iteration(self) -> None:
        self.lab.transfer_operator.clear_fiber_cache()

    def iterate(self) -> Iteration:
        lab, s = self.lab, self.sizes
        rmap, p = self.rmap, s.transfer_power
        functions = self.polys + [self.oracle]
        powers = [[lab.transfer_power(rmap, a, p, w) for a in functions]
                  for w in self.roots]
        xis = self.polys[:s.transfer_reconstructs]
        norms = [lab.sup_norm_2(rmap, xi, self.sample_points) for xi in xis]
        residuals = [lab.reconstruct(rmap, self.basis, xi, len(self.basis), self.sample)[1]
                     for xi in xis]
        evals = len(self.roots) * len(functions) + 2 * len(xis) * self.sample.size
        return Iteration((powers, norms, residuals), items=evals, item_s=None,
                         ops=len(self.roots) * len(functions) + 2 * len(xis))

    def check(self, result, checks: Checks) -> None:
        powers, norms, residuals = result
        for i, row in enumerate(powers):
            checks.within(f"root{i}/moment z^2", abs(row[-1] - 1.0), TOL)
        for i, res in enumerate(residuals):
            checks.within(f"reconstruct{i}", res, TOL)

    def final_check(self, result, checks: Checks) -> None:
        """Independent paths, run once: tree quadrature and direct fibers."""
        lab, rmap = self.lab, self.rmap
        powers, norms, _ = result
        p = self.sizes.transfer_power
        for i, (w, row) in enumerate(zip(self.roots, powers)):
            mu = lab.measure_from_tree(lab.iterated_preimages(rmap, w, p))
            worst = max(abs(v - lab.integrate(mu, a)) for v, a in zip(row, self.polys))
            checks.within(f"root{i}/two_path", worst, TOL)
        fibers = [lab.preimages(rmap, w).atoms for w in self.sample_points]
        for i, (xi, value) in enumerate(zip(self.polys, norms)):
            worst = max(sum(m * abs(xi(pt)) ** 2 for pt, m in atoms) / rmap.degree
                        for atoms in fibers)
            ref = math.sqrt(worst)
            checks.within(f"sup_norm{i}", abs(value - ref) / ref, TOL)


WORKLOADS = {w.name: w for w in (TreeDeep, VerifyDense, TransferPointwise)}
