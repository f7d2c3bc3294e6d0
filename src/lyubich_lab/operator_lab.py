"""Finite operator model on preimage-tree levels, plus the identity harness.

The square-summable space over the balanced measure is modeled by the
tower of weighted atom spaces carried by a preimage tree: level k holds
the depth-k atoms with their exact measure weights.  On that tower the
composition operator is the parent-lookup matrix between adjacent levels,
its weighted adjoint is literally the fiber-averaging transfer operator,
and the identities below hold up to roundoff rather than discretization:

* isometry of the composition operator,
* the covariance relation (adjoint conjugation equals multiplication by
  the transferred symbol),
* the representation relations of the module structure,
* the frame bound and reconstruction sums for a bump basis,
* the vanishing-tail reconstruction for functions that vanish near the
  branch points.

Identities are tested across adjacent levels, which is exactly where the
discrete pushforward identity makes them exact.

C C* couples only siblings, so the checks work on one block of at most
degree x degree per level-(k-1) atom, and C* M C is diagonal.  The dense
level matrices below are only the reference that tests compare against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bimodule_basis import (JuliaSample, VanishingFunction, _julia_samples,
                             branch_points_on_julia, branch_separation_radius,
                             build_basis, net_radius)
from .errors import EigSolverFailure, NoVanishingTail
from .lyubich_measure import (default_root, integrate, measure_from_tree,
                              measure_match_defect, pushforward)
from .preimage_solver import Fibers, PreimageTree, gather_fibers, iterated_preimages
from .rational_map import RationalMap
from .sphere import INFINITY, SpherePoint, as_point, chordal_array
from .test_functions import ONE, TestFunction, random_polynomial
from .transfer_operator import transfer_power

TOLERANCES = {
    "invariance": 1e-8,
    "isometry": 1e-12,
    "covariance": 1e-10,
    "transfer_unitality": 1e-12,
    "transfer_two_path": 1e-10,
    "representation": 1e-10,
    "key_lemma": 1e-10,
    "frame_bound": 1e-8,
    "vanishing_tail": 1e-2,
}


@dataclass
class LevelSpace:
    """One weighted atom space of the tower."""

    points: np.ndarray
    inf_mask: np.ndarray
    weights: np.ndarray
    parent: np.ndarray

    @property
    def dim(self) -> int:
        return self.points.size


@dataclass
class OperatorModel:
    """The tower of weighted atom spaces for one map, root, and depth."""

    map: RationalMap
    root: SpherePoint
    depth: int
    tree: PreimageTree
    levels: list = field(default_factory=list)
    _fibers: dict = field(default_factory=dict, repr=False)
    _basis_matrices: dict = field(default_factory=dict, repr=False)

    def dim(self, k: int) -> int:
        return self.levels[k].dim

    def dims(self) -> tuple:
        return tuple(lvl.dim for lvl in self.levels)

    def fibers(self, k: int) -> Fibers:
        """The fibers over level k-1, solved once per model from the level's
        points, never read from the tree's parent and ``cum`` assembly."""
        if k not in self._fibers:
            prev = self.levels[k - 1]
            self._fibers[k] = gather_fibers(self.map, prev.points, prev.inf_mask)
        return self._fibers[k]

    def sibling_fibers(self, k: int) -> Fibers:
        """The fibers over the images of level k, each holding an atom and
        its siblings, solved once per model from the level's points."""
        if ("siblings", k) not in self._fibers:
            lvl = self.levels[k]
            self._fibers["siblings", k] = gather_fibers(self.map, lvl.points, lvl.inf_mask,
                                                        siblings=True)
        return self._fibers["siblings", k]

    def basis_matrix(self, basis: list, k: int) -> np.ndarray:
        """The basis's partition evaluated on level k, one row per member,
        computed once per model, partition and level; read-only."""
        lvl = self.levels[k]
        return self._cached_basis_matrix(basis, k, lvl.points, lvl.inf_mask)

    def sibling_basis_matrix(self, basis: list, k: int) -> np.ndarray:
        """The same on the points of ``sibling_fibers(k)``; read-only."""
        fib = self.sibling_fibers(k)
        return self._cached_basis_matrix(basis, ("siblings", k), fib.points, fib.inf_mask)

    def _cached_basis_matrix(self, basis: list, key, points, inf_mask) -> np.ndarray:
        key = (basis[0].partition if basis else None, key)
        if key not in self._basis_matrices:
            matrix = _basis_matrix(basis, points, inf_mask)
            matrix.setflags(write=False)
            self._basis_matrices[key] = matrix
        return self._basis_matrices[key]

    def values(self, f: TestFunction, k: int) -> np.ndarray:
        lvl = self.levels[k]
        return f.evaluate(lvl.points, lvl.inf_mask)

    def inner(self, k: int, fv: np.ndarray, gv: np.ndarray) -> complex:
        w = self.levels[k].weights
        terms = fv * np.conj(gv) * w
        return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))

    def composition_matrix(self, k: int) -> np.ndarray:
        """The parent-lookup matrix H_{k-1} -> H_k (rows are one-hot); dense reference."""
        lvl = self.levels[k]
        mat = np.zeros((lvl.dim, self.levels[k - 1].dim))
        mat[np.arange(lvl.dim), lvl.parent] = 1.0
        return mat

    def adjoint_matrix(self, k: int) -> np.ndarray:
        """Adjoint of the composition matrix in the weighted inner products.

        Row j averages the children of atom j with weight ratios; on a
        fully enumerated tree this is exactly the fiber-averaging transfer
        operator restricted to the atoms.  Dense reference.
        """
        lvl = self.levels[k]
        prev = self.levels[k - 1]
        mat = np.zeros((prev.dim, lvl.dim))
        mat[lvl.parent, np.arange(lvl.dim)] = lvl.weights / prev.weights[lvl.parent]
        return mat

    def apply_adjoint(self, k: int, v: np.ndarray) -> np.ndarray:
        """Adjoint composition applied to the vectors along the last axis
        of ``v``, without the dense matrix."""
        lvl = self.levels[k]
        prev = self.levels[k - 1]
        out = np.zeros(v.shape[:-1] + (prev.dim,), dtype=complex)
        np.add.at(out.T, lvl.parent, (v * lvl.weights).T)
        return out / prev.weights

    def weighted_norm(self, k: int, matrix: np.ndarray) -> float:
        """Operator norm on level k with the weighted inner product; dense reference."""
        d = np.sqrt(self.levels[k].weights)
        sim = (matrix * (d[:, None] / d[None, :]))
        return float(np.linalg.norm(sim, 2))


def build_model(rmap: RationalMap, w, m: int) -> OperatorModel:
    """Populate the tower for a map, non-exceptional root, and depth."""
    tree = iterated_preimages(rmap, w, m)
    model = OperatorModel(map=rmap, root=tree.root, depth=m, tree=tree)
    for k in range(m + 1):
        lvl = tree.level(k)
        denom = float(tree.weight_base ** k)
        model.levels.append(LevelSpace(
            points=lvl.points.copy(),
            inf_mask=lvl.infinite.copy(),
            weights=lvl.cum / denom,
            parent=lvl.parent.copy(),
        ))
    return model


# ----------------------------------------------------------------------
# identity checks


def verify_isometry(model: OperatorModel, f: TestFunction, k: int) -> float:
    """| ||Cf||^2 on level k  -  ||f||^2 on level k-1 |."""
    fv = model.values(f, k - 1)
    cf = fv[model.levels[k].parent]
    lhs = model.inner(k, cf, cf).real
    rhs = model.inner(k - 1, fv, fv).real
    return abs(lhs - rhs)


def verify_covariance(model: OperatorModel, a: TestFunction, f: TestFunction,
                      g: TestFunction, k: int) -> float:
    """|<M_a Cf, Cg> on level k - <M_(La) f, g> on level k-1|.

    The right side evaluates the transferred symbol through independent
    fiber solves, not through the tree.
    """
    lvl = model.levels[k]
    prev = model.levels[k - 1]
    av = model.values(a, k)
    fv = model.values(f, k - 1)
    gv = model.values(g, k - 1)
    lhs_terms = av * fv[lvl.parent] * np.conj(gv[lvl.parent]) * lvl.weights
    lhs = complex(math.fsum(lhs_terms.real.tolist()),
                  math.fsum(lhs_terms.imag.tolist()))
    fib = model.fibers(k)
    la = fib.average(a.evaluate(fib.points, fib.inf_mask))
    rhs_terms = la * fv * np.conj(gv) * prev.weights
    rhs = complex(math.fsum(rhs_terms.real.tolist()),
                  math.fsum(rhs_terms.imag.tolist()))
    return abs(lhs - rhs)


def verify_representation(model: OperatorModel, xi: TestFunction,
                          eta: TestFunction, a: TestFunction,
                          k: int) -> tuple[float, float]:
    """Residuals of the two representation relations.

    First: multiplication before or after the symbol map agrees exactly
    as matrices (asserted zero by construction).  Second: the operator
    norm gap between the composed pairing and multiplication by the
    module inner product on level k-1.
    """
    av = model.values(a, k)
    xv = model.values(xi, k)
    # C has a single one per level-k atom (row); scale those entries as the
    # row scalings would, so both sides take the identical floating-point path.
    comp = np.ones(model.dim(k))
    residual1 = float(np.max(np.abs(av * (xv * comp) - (av * xv) * comp)))

    # C* M C is the diagonal fiber average of conj(xi) * eta; the weighted
    # norm of a diagonal is its largest entry.
    pairing = model.apply_adjoint(k, np.conj(xv) * model.values(eta, k))
    fib = model.fibers(k)
    ip_vals = fib.average((xi.conj() * eta).evaluate(fib.points, fib.inf_mask))
    residual2 = float(np.max(np.abs(pairing - ip_vals)))
    return residual1, residual2


def _basis_matrix(basis: list, points: np.ndarray, inf_mask: np.ndarray) -> np.ndarray:
    if not basis:
        return np.zeros((0, points.size))
    return basis[0].partition.member_matrix(points, inf_mask)


def verify_key_lemma(model: OperatorModel, basis: list, N: int,
                     a: TestFunction, k: int) -> float:
    """Two evaluations of the same reconstruction sum must agree pointwise.

    Path one composes the model matrices; path two evaluates each element
    against independently root-found fibers of the mapped atoms.
    """
    lvl = model.levels[k]
    av = model.values(a, k)
    count = min(N, len(basis))
    U = model.basis_matrix(basis, k)[:count]

    # Bumps are real-valued, so no conjugates appear.
    path_a = (U * model.apply_adjoint(k, U * av)[:, lvl.parent]).sum(axis=0)

    fib = model.sibling_fibers(k)
    U_fiber = model.sibling_basis_matrix(basis, k)[:count]
    a_fiber = a.evaluate(fib.points, fib.inf_mask)
    path_b = (U * fib.average(U_fiber * a_fiber)).sum(axis=0)

    return float(np.max(np.abs(path_a - path_b))) if lvl.dim else 0.0


def _frame_matrix(model: OperatorModel, basis: list, N: int, k: int) -> np.ndarray:
    """Partial frame sum on level k; dense reference."""
    lvl = model.levels[k]
    comp = model.composition_matrix(k)
    proj = comp @ model.adjoint_matrix(k)
    U = _basis_matrix(basis, lvl.points, lvl.inf_mask)
    total = np.zeros((lvl.dim, lvl.dim), dtype=complex)
    for i in range(min(N, len(basis))):
        u = U[i]
        total += u[:, None] * proj * u[None, :]
    return total


def _frame_blocks(model: OperatorModel, basis: list, N: int, k: int):
    """The partial frame sum on level k after the sqrt(weight) similarity,
    as a (parents, width, width) stack of real symmetric sibling blocks.

    Block p sums v v^T over the first N elements, v = u[children of p] *
    sqrt(w_child / w_p), zero-padded to ``width``.  Also returns each atom's
    slot among its siblings and each parent's child count.
    """
    lvl = model.levels[k]
    prev = model.levels[k - 1]
    counts = np.bincount(lvl.parent, minlength=prev.dim)
    order = np.argsort(lvl.parent, kind="stable")
    slot = np.empty(lvl.dim, dtype=np.intp)
    slot[order] = np.arange(lvl.dim) - (np.cumsum(counts) - counts)[lvl.parent[order]]
    count = min(N, len(basis))
    U = model.basis_matrix(basis, k)[:count]
    V = np.zeros((prev.dim, int(counts.max()), count))
    V[lvl.parent, slot] = (U * np.sqrt(lvl.weights / prev.weights[lvl.parent])).T
    return V @ V.transpose(0, 2, 1), slot, counts


def verify_frame_bound(model: OperatorModel, basis: list, N: int, k: int,
                       full: bool = False):
    """Largest eigenvalue of the partial frame sum on level k.

    The sum of element-conjugated projections is positive and bounded by
    the identity; eigenvalues are monotone non-decreasing in N.  With
    ``full=True`` returns (min_eigenvalue, max_eigenvalue).
    """
    if min(N, len(basis)) == 0:
        return (0.0, 0.0) if full else 0.0
    blocks, _, counts = _frame_blocks(model, basis, N, k)
    # A padded slot gets the block's first diagonal entry as its eigenvalue,
    # which lies between the block's extreme eigenvalues and so moves neither.
    parent, pad = np.nonzero(np.arange(blocks.shape[1]) >= counts[:, None])
    blocks[parent, pad, pad] = blocks[parent, 0, 0]
    try:
        eigs = np.linalg.eigvalsh(blocks)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure("sibling-block eigensolve failed") from exc
    if full:
        return float(eigs[:, 0].min()), float(eigs[:, -1].max())
    return float(eigs[:, -1].max())


def verify_vanishing_reconstruction(model: OperatorModel, basis: list,
                                    a: VanishingFunction, k: int) -> tuple[int, float]:
    """Smallest index M past which a meets no element, and the norm gap
    between the a-weighted partial frame sum at M and multiplication by a.

    Raises NoVanishingTail when a meets every element.
    """
    meets = [a.meets(el) for el in basis]
    if basis and all(meets):
        raise NoVanishingTail(
            f"{a.fn.name} meets all {len(basis)} elements")
    M = 0
    for i, m in enumerate(meets):
        if m:
            M = i + 1
    blocks, slot, _ = _frame_blocks(model, basis, M, k)
    # diag(a) (frame - I) splits into the same sibling blocks; padded rows
    # carry a = 0 and padded columns of (frame - I) are zero off the diagonal.
    a_blocks = np.zeros(blocks.shape[:2], dtype=complex)
    a_blocks[model.levels[k].parent, slot] = model.values(a.fn, k)
    gap = a_blocks[:, :, None] * (blocks - np.eye(blocks.shape[1]))
    return M, float(np.linalg.norm(gap, 2, axis=(1, 2)).max())


# ----------------------------------------------------------------------
# the verification suite


def _record(identity: str, rmap: RationalMap, w: SpherePoint, m: int, k: int,
            residual: float, N: int | None = None, extra_pass: bool = True) -> dict:
    tol = TOLERANCES[identity]
    rec = {
        "identity": identity,
        "map": rmap.name or repr(rmap),
        "w": "inf" if w.infinite else [w.value.real, w.value.imag],
        "m": m,
        "k": k,
        "residual": residual,
        "tolerance": tol,
        "pass": bool(residual <= tol) and extra_pass,
    }
    if N is not None:
        rec["N"] = N
    return rec


def default_basis(rmap: RationalMap, sample: JuliaSample,
                  count: int = 32, count_cap: int = 256) -> list:
    """Basis sized for the suite: a net of about ``count`` bumps whose
    supports respect the separation radius."""
    r_sep = branch_separation_radius(rmap, sample)
    r = min(net_radius(sample, count) * 1.000001, r_sep / 3.0)
    return build_basis(rmap, sample, r, count_cap=count_cap)


def verification_suite(rmap: RationalMap, w=None, m: int = 8, seed: int = 0,
                       trials: int = 100, pairs: int = 50,
                       basis_count: int = 32, sample_size: int = 384,
                       unitality_points: int = 1000,
                       identities=None) -> dict:
    """Run every identity check for one map and return the JSON report.

    Deterministic for a given seed.  ``identities`` may restrict to a
    subset of the record names.
    """
    w = default_root(rmap) if w is None else as_point(w)
    wanted = None if identities is None else set(identities)

    def want(name):
        return wanted is None or name in wanted

    rng = np.random.default_rng(seed)
    model = build_model(rmap, w, m)
    # The basis sample feeds the last three identities only.  At the
    # default sizes both samples come from one depth-12 tree.
    with_basis = any(map(want, ("key_lemma", "frame_bound", "vanishing_tail")))
    sizes = (((sample_size,) if with_basis else ())
             + ((unitality_points,) if want("transfer_unitality") else ()))
    samples = _julia_samples(rmap, sizes, seed) if sizes else []
    k = m
    records = []

    if want("invariance"):
        worst = 0.0
        exact = True
        mu = measure_from_tree(model.tree, model.depth)
        for level in range(model.depth, 0, -1):
            pushed = pushforward(mu, rmap)
            target = measure_from_tree(model.tree, level - 1)
            defect, ok = measure_match_defect(pushed, target)
            worst = max(worst, defect)
            exact = exact and ok
            mu = target
        records.append(_record("invariance", rmap, w, m, k, worst,
                               extra_pass=exact))

    if want("isometry"):
        worst = max(verify_isometry(model, random_polynomial(rng, 2), k)
                    for _ in range(trials))
        records.append(_record("isometry", rmap, w, m, k, worst))

    if want("covariance"):
        worst = 0.0
        for _ in range(trials):
            a = random_polynomial(rng, 2)
            f = random_polynomial(rng, 2)
            g = random_polynomial(rng, 2)
            worst = max(worst, verify_covariance(model, a, f, g, k))
        records.append(_record("covariance", rmap, w, m, k, worst))

    if want("transfer_unitality"):
        fib = gather_fibers(rmap, samples[-1].points, samples[-1].inf_mask)
        ones = fib.average(ONE.evaluate(fib.points, fib.inf_mask))
        worst = float(np.max(np.abs(ones - 1.0)))
        records.append(_record("transfer_unitality", rmap, w, m, k, worst))

    if want("transfer_two_path"):
        a = random_polynomial(rng, 2)
        worst = 0.0
        powers = (0, 1, 2, 3, 5, 8, min(m, 10))
        # Every power reads a level of one tree; level k of a deeper tree
        # is built exactly as in a depth-k tree.  transfer_power solves the
        # same orbit with the same engine, so this compares the tree's
        # weights, order and quadrature with fiber-order averaging; the
        # tests hold transfer_power to the scalar path and the closed form.
        tree = (model.tree if max(powers) <= m
                else iterated_preimages(rmap, w, max(powers)))
        for power in powers:
            via_power = transfer_power(rmap, a, power, w)
            via_tree = integrate(measure_from_tree(tree, power), a)
            worst = max(worst, abs(via_power - via_tree))
        records.append(_record("transfer_two_path", rmap, w, m, k, worst))

    if with_basis:
        sample = samples[0]
        basis = default_basis(rmap, sample, count=basis_count)

    if want("representation"):
        worst = 0.0
        exact = True
        for _ in range(pairs):
            xi = random_polynomial(rng, 2)
            eta = random_polynomial(rng, 2)
            a = random_polynomial(rng, 1)
            r1, r2 = verify_representation(model, xi, eta, a, k)
            exact = exact and (r1 == 0.0)
            worst = max(worst, r2)
        records.append(_record("representation", rmap, w, m, k, worst,
                               extra_pass=exact))

    if want("key_lemma"):
        worst = 0.0
        for N in (0, max(1, len(basis) // 2), len(basis)):
            a = random_polynomial(rng, 2)
            worst = max(worst, verify_key_lemma(model, basis, N, a, k))
        records.append(_record("key_lemma", rmap, w, m, k, worst,
                               N=len(basis)))

    if want("frame_bound"):
        worst_high = 0.0
        worst_low = 0.0
        monotone = True
        previous = 0.0
        for N in range(1, len(basis) + 1):
            low, high = verify_frame_bound(model, basis, N, k, full=True)
            worst_high = max(worst_high, high - 1.0)
            worst_low = max(worst_low, -low)
            if high < previous - 1e-10:
                monotone = False
            previous = high
        residual = max(worst_high, 0.0)
        ok = monotone and worst_low <= 1e-10
        records.append(_record("frame_bound", rmap, w, m, k, residual,
                               N=len(basis), extra_pass=ok))

    if want("vanishing_tail"):
        branch = [d.point for d in branch_points_on_julia(rmap, sample)]
        if branch:
            dists = np.full(sample.size, np.inf)
            for bp in branch:
                dists = np.minimum(dists, chordal_array(sample.points,
                                                        sample.inf_mask, bp))
            center_idx = int(np.argmax(dists))
            center = (INFINITY if sample.inf_mask[center_idx]
                      else SpherePoint(complex(sample.points[center_idx])))
            radius = min(0.45 * float(dists[center_idx]), 0.5)
        else:
            center = (INFINITY if sample.inf_mask[0]
                      else SpherePoint(complex(sample.points[0])))
            radius = 0.5
        vf = VanishingFunction.bump(rmap, center, radius, branch_points=branch)
        M, residual = verify_vanishing_reconstruction(model, basis, vf, k)
        records.append(_record("vanishing_tail", rmap, w, m, k, residual, N=M))

    return {
        "config": {
            "map": rmap.describe(),
            "w": "inf" if w.infinite else [w.value.real, w.value.imag],
            "m": m,
            "seed": seed,
            "trials": trials,
            "pairs": pairs,
            "basis_count": basis_count,
            "sample_size": sample_size,
        },
        "results": records,
        "all_pass": all(r["pass"] for r in records),
    }
