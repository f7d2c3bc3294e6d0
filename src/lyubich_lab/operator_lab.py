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

C C* is the conditional expectation onto sibling groups, so it couples
only siblings, and C* M C is diagonal.  The model reaches sibling groups
one way: each level-k atom has a slot among the children of its parent,
and a level vector is put into (parents, width) blocks by that slot.  The
adjoint sums each parent's slots; the partial frame sum is one block of
at most degree x degree per parent, built as one running sum over the
basis, which the frame bound, the vanishing tail and the key lemma's
first path all read.  The frame bound reads every prefix of the basis in
one pass, and blocks of two take their spectra in closed form.  The dense
level matrices below are only the reference that tests compare against.

The model's levels are the tree's own levels, with no copies.  The checks
read the fibers, sibling fibers, power tables and cover tables that each
level, fiber table and Julia sample owns, so over one suite run each
point set is solved once and each partition evaluated on it once.  Sums
over the basis run over each point's cover, the few elements nonzero
there, never over whole (elements, points) arrays.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .bimodule_basis import (JuliaSample, VanishingFunction, _julia_samples,
                             branch_points_on_julia, branch_separation_radius,
                             build_basis, net_radius, reconstruction_sum)
from .errors import EigSolverFailure, NoVanishingTail
from .lyubich_measure import (compensated_sum, default_root, integrate,
                              measure_from_tree, measure_match_defect, pushforward)
from .preimage_solver import Cover, Fibers, PointSet, PreimageTree, iterated_preimages
from .rational_map import RationalMap
from .sphere import SpherePoint, as_point
from .test_functions import (ONE, PolynomialBatch, TestFunction,
                             random_polynomial, random_polynomials, random_trials)
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
class OperatorModel:
    """The tower of weighted atom spaces of one preimage tree, which holds
    the map and the root: level k is the tree's depth-k measure, the
    tree's own level.

    Each level owns what is derived from its points (its fibers, sibling
    fibers, power table and cover tables); the model only names them by
    level.  The one memo it keeps holds what reads two levels:
    :meth:`siblings`, keyed by ("siblings", k), and :meth:`frame_vectors`,
    keyed by (k, partition).  Its arrays are read-only.
    """

    depth: int
    tree: PreimageTree
    levels: list = field(default_factory=list)
    _memo: dict = field(default_factory=dict, repr=False)

    def dim(self, k: int) -> int:
        return self.levels[k].size

    def dims(self) -> tuple:
        return tuple(lvl.size for lvl in self.levels)

    def fibers(self, k: int) -> Fibers:
        """The fibers over level k-1, solved once from the level's points,
        never read from the tree's parent and ``cum`` assembly."""
        return self.levels[k - 1].fibers

    def sibling_fibers(self, k: int) -> Fibers:
        """The fibers over the images of level k, each holding an atom and
        its siblings, solved once from the level's points."""
        return self.levels[k].sibling_fibers

    def values(self, f: TestFunction | PolynomialBatch, k: int) -> np.ndarray:
        """f on level k, or one row per polynomial of a batch; polynomials
        read the level's power table."""
        return f.evaluate(self.levels[k].powers)

    def siblings(self, k: int):
        """The sibling blocks of level k, computed once: each atom's slot
        among its siblings, its distance from its parent's first child
        (``parent`` never decreases), and each level-(k-1) atom's child
        count, the number of slots it fills."""
        key = ("siblings", k)
        if key not in self._memo:
            lvl = self.levels[k]
            counts = np.bincount(lvl.parent, minlength=self.levels[k - 1].size)
            slot = np.arange(lvl.size) - (np.cumsum(counts) - counts)[lvl.parent]
            for array in (slot, counts):
                array.setflags(write=False)
            self._memo[key] = slot, counts
        return self._memo[key]

    def _blocks(self, k: int, v: np.ndarray) -> np.ndarray:
        """The vectors along the last axis of ``v`` on level k, put into
        (..., parents, width) sibling blocks, with 0 in the padded slots."""
        slot, counts = self.siblings(k)
        out = np.zeros(v.shape[:-1] + (counts.size, int(counts.max())), dtype=v.dtype)
        out[..., self.levels[k].parent, slot] = v
        return out

    def frame_vectors(self, basis: list, k: int) -> np.ndarray:
        """The basis on level k regrouped by sibling block after the
        sqrt(weight) similarity, computed once per partition: ``V``
        (parents, width, elements) with ``V[p, s, i] = u_i(x) sqrt(w_x / w_p)``
        for the child x in slot s of parent p, and zero padding."""
        key = (k, basis[0].partition if basis else None)
        if key not in self._memo:
            lvl = self.levels[k]
            prev = self.levels[k - 1]
            slot, counts = self.siblings(k)
            scale = np.sqrt(lvl.weights / prev.weights[lvl.parent])
            V = np.zeros((prev.size, int(counts.max()), len(basis)))
            cover = _cover_on(lvl, basis)
            for members, u in zip(cover.index, cover.value):
                hit = u != 0.0
                V[lvl.parent[hit], slot[hit], members[hit]] = u[hit] * scale[hit]
            V.setflags(write=False)
            self._memo[key] = V
        return self._memo[key]

    def inner(self, k: int, fv: np.ndarray, gv: np.ndarray | None = None):
        """The weighted inner products <fv, gv> on level k along the last
        axis; with ``gv`` omitted, the squared norms <fv, fv>, whose
        imaginary parts are not summed."""
        terms = fv * np.conj(fv if gv is None else gv) * self.levels[k].weights
        return compensated_sum(terms.real, None if gv is None else terms.imag)

    def composition_matrix(self, k: int) -> np.ndarray:
        """The parent-lookup matrix H_{k-1} -> H_k (rows are one-hot); dense reference."""
        lvl = self.levels[k]
        mat = np.zeros((lvl.size, self.levels[k - 1].size))
        mat[np.arange(lvl.size), lvl.parent] = 1.0
        return mat

    def adjoint_matrix(self, k: int) -> np.ndarray:
        """Adjoint of the composition matrix in the weighted inner products.

        Row j averages the children of atom j with weight ratios; on a
        fully enumerated tree this is exactly the fiber-averaging transfer
        operator restricted to the atoms.  Dense reference.
        """
        lvl = self.levels[k]
        prev = self.levels[k - 1]
        mat = np.zeros((prev.size, lvl.size))
        mat[lvl.parent, np.arange(lvl.size)] = lvl.weights / prev.weights[lvl.parent]
        return mat

    def apply_adjoint(self, k: int, v: np.ndarray) -> np.ndarray:
        """Adjoint composition applied to the vectors along the last axis
        of ``v``, without the dense matrix: each parent sums its children's
        v * w from 0, in level order, and divides by its weight."""
        blocks = self._blocks(k, v * self.levels[k].weights)
        out = np.zeros(blocks.shape[:-1], dtype=complex)
        for s in range(blocks.shape[-1]):
            out = out + blocks[..., s]
        return out / self.levels[k - 1].weights

    def weighted_norm(self, k: int, matrix: np.ndarray) -> float:
        """Operator norm on level k with the weighted inner product; dense reference."""
        d = np.sqrt(self.levels[k].weights)
        sim = (matrix * (d[:, None] / d[None, :]))
        return float(np.linalg.norm(sim, 2))


def _cover_on(points: PointSet, basis: list) -> Cover:
    """The cover table of the basis's partition on a point set."""
    return points.cover(basis[0].partition) if basis else Cover.of(np.zeros((0, points.size)))


def build_model(rmap: RationalMap, w, m: int) -> OperatorModel:
    """Populate the tower for a map, non-exceptional root, and depth."""
    tree = iterated_preimages(rmap, w, m)
    return OperatorModel(depth=m, tree=tree,
                         levels=[measure_from_tree(tree, k) for k in range(m + 1)])


# ----------------------------------------------------------------------
# identity checks


# Isometry, covariance and representation take a batch wherever they take
# a polynomial, and return the worst residual over its rows.


def verify_isometry(model: OperatorModel, f: TestFunction | PolynomialBatch, k: int) -> float:
    """| ||Cf||^2 on level k  -  ||f||^2 on level k-1 |."""
    fv = model.values(f, k - 1)
    cf = fv[..., model.levels[k].parent]
    return float(np.max(np.abs(model.inner(k, cf) - model.inner(k - 1, fv))))


def verify_covariance(model: OperatorModel, a: TestFunction | PolynomialBatch,
                      f: TestFunction | PolynomialBatch, g: TestFunction | PolynomialBatch,
                      k: int) -> float:
    """|<M_a Cf, Cg> on level k - <M_(La) f, g> on level k-1|.

    The right side evaluates the transferred symbol through independent
    fiber solves, not through the tree.
    """
    lvl = model.levels[k]
    prev = model.levels[k - 1]
    av = model.values(a, k)
    fv = model.values(f, k - 1)
    gv = model.values(g, k - 1)
    lhs_terms = av * fv[..., lvl.parent] * np.conj(gv[..., lvl.parent]) * lvl.weights
    fib = model.fibers(k)
    la = fib.average(a.evaluate(fib.powers))
    rhs_terms = la * fv * np.conj(gv) * prev.weights
    gap = (compensated_sum(lhs_terms.real, lhs_terms.imag)
           - compensated_sum(rhs_terms.real, rhs_terms.imag))
    # hypot of the parts rounds as abs of a Python complex does.
    return float(np.max(np.hypot(np.real(gap), np.imag(gap))))


def verify_representation(model: OperatorModel, xi: TestFunction | PolynomialBatch,
                          eta: TestFunction | PolynomialBatch, a: TestFunction | PolynomialBatch,
                          k: int) -> tuple[float, float]:
    """Residuals of the two representation relations.

    First: multiplication before or after the symbol map agrees exactly
    as matrices (asserted zero by construction, on every row of a batch).
    Second: the operator norm gap between the composed pairing and
    multiplication by the module inner product on level k-1.
    """
    av = model.values(a, k)
    xv = model.values(xi, k)
    # C has a single one per level-k atom (row); scale those entries as the
    # row scalings would, so both sides take the identical floating-point path.
    # The products are named: from 256 KiB numpy computes ``x * temporary``
    # in place as ``temporary * x``, and a complex product can differ from
    # its mirror image in the last bit.
    comp = np.ones(model.dim(k))
    x_comp = xv * comp
    a_x = av * xv
    residual1 = float(np.max(np.abs(av * x_comp - a_x * comp)))

    # C* M C is the diagonal fiber average of conj(xi) * eta; the weighted
    # norm of a diagonal is its largest entry.
    pairing = model.apply_adjoint(k, np.conj(xv) * model.values(eta, k))
    fib = model.fibers(k)
    ip_vals = fib.average((xi.conj() * eta).evaluate(fib.powers))
    residual2 = float(np.max(np.abs(pairing - ip_vals)))
    return residual1, residual2


def verify_key_lemma(model: OperatorModel, basis: list, N: int,
                     a: TestFunction, k: int) -> float:
    """Two evaluations of the same reconstruction sum must agree pointwise.

    Path one applies the partial frame sum's sibling blocks to the values
    of a on the level (``_apply_frame_sum``), with the tree's weights and
    parents; path two evaluates each element against independently
    root-found fibers of the mapped atoms (``reconstruction_sum``), summing
    over the elements nonzero at each atom only.
    """
    lvl = model.levels[k]
    # Path two first: its fiber solve is the larger allocation, and the
    # frame vectors built after it stay below that peak.
    fib = model.sibling_fibers(k)
    path_b = reconstruction_sum(_cover_on(lvl, basis), fib, _cover_on(fib, basis),
                                a.evaluate(fib.powers), min(N, len(basis)))
    path_a = _apply_frame_sum(model, basis, N, k, model.values(a, k))
    return float(np.max(np.abs(path_a - path_b))) if lvl.size else 0.0


def _frame_matrix(model: OperatorModel, basis: list, N: int, k: int) -> np.ndarray:
    """Partial frame sum on level k; dense reference."""
    lvl = model.levels[k]
    comp = model.composition_matrix(k)
    proj = comp @ model.adjoint_matrix(k)
    count = min(N, len(basis))
    U = basis[0].partition.member_matrix(lvl.points, lvl.inf_mask) if count else None
    total = np.zeros((lvl.size, lvl.size), dtype=complex)
    for i in range(count):
        u = U[i]
        total += u[:, None] * proj * u[None, :]
    return total


def _frame_sums(model: OperatorModel, basis: list, k: int):
    """The partial frame sums on level k after the sqrt(weight) similarity,
    B_N for N = 0, 1, ..., len(basis), as (parents, width, width) stacks of
    real symmetric sibling blocks.

    One running sum B_N = B_(N-1) + v_N v_N^T over the elements of
    :meth:`OperatorModel.frame_vectors` yields them in turn, each as the
    same read-only view of the one array that the next step adds to.
    """
    V = model.frame_vectors(basis, k)
    total = np.zeros(V.shape[:2] + V.shape[1:2])
    view = total.view()
    view.setflags(write=False)
    yield view
    for i in range(V.shape[2]):
        v = V[..., i]
        total += v[:, :, None] * v[:, None, :]
        yield view


def _frame_sum(model: OperatorModel, basis: list, N: int, k: int) -> np.ndarray:
    """The partial frame sum B_N of :func:`_frame_sums`, N capped at the
    basis size."""
    return next(islice(_frame_sums(model, basis, k), min(N, len(basis)), None))


def _apply_frame_sum(model: OperatorModel, basis: list, N: int, k: int,
                     av: np.ndarray) -> np.ndarray:
    """The partial frame sum on level k applied to ``av``: its sibling
    blocks act on sqrt(weight) * av, and the similarity is undone."""
    lvl = model.levels[k]
    slot, _ = model.siblings(k)
    root_w = np.sqrt(lvl.weights)
    product = _frame_sum(model, basis, N, k) @ model._blocks(k, root_w * av)[..., None]
    return product[lvl.parent, slot, 0] / root_w


def _block_extremes(blocks: np.ndarray, counts: np.ndarray):
    """Smallest and largest eigenvalue of each real symmetric sibling
    block, without writing to ``blocks``.

    A padded slot gets the block's first diagonal entry as its eigenvalue,
    which lies between the block's extreme eigenvalues and so moves
    neither.  Blocks of width 2 take the closed form
    (a + c)/2 -+ hypot((a - c)/2, b), with c := a on one-child parents;
    other widths go to the eigensolver on a padded copy.  A block with a
    non-finite entry gets NaN extremes at every width.
    """
    width = blocks.shape[1]
    if width == 2:
        a = blocks[:, 0, 0]
        c = np.where(counts == 1, a, blocks[:, 1, 1])
        mid = (a + c) / 2
        radius = np.hypot((a - c) / 2, blocks[:, 0, 1])
        return mid - radius, mid + radius
    padded = blocks.copy()
    parent, pad = np.nonzero(np.arange(width) >= counts[:, None])
    padded[parent, pad, pad] = padded[parent, 0, 0]
    try:
        eigs = np.linalg.eigvalsh(padded)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure("sibling-block eigensolve failed") from exc
    # LAPACK can read a NaN on the diagonal as a finite spectrum.
    eigs[~np.isfinite(padded).all(axis=(1, 2))] = np.nan
    return eigs[:, 0], eigs[:, -1]


def verify_frame_bound(model: OperatorModel, basis: list, k: int):
    """Smallest and largest eigenvalue of every partial frame sum on level
    k, as two arrays whose entry N - 1 belongs to the sum of the first N
    elements, N = 1..len(basis), read in one pass of the running sum.

    The sum of element-conjugated projections is positive and bounded by
    the identity; eigenvalues are monotone non-decreasing in N.
    """
    _, counts = model.siblings(k)
    lows = np.empty(len(basis))
    highs = np.empty(len(basis))
    sums = _frame_sums(model, basis, k)
    next(sums)  # B_0, the empty sum
    for n, blocks in enumerate(sums):
        low, high = _block_extremes(blocks, counts)
        lows[n], highs[n] = low.min(), high.max()
    return lows, highs


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
    blocks = _frame_sum(model, basis, M, k)
    # diag(a) (frame - I) splits into the same sibling blocks; padded rows
    # carry a = 0 and padded columns of (frame - I) are zero off the diagonal.
    a_blocks = model._blocks(k, model.values(a.fn, k))
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


# numpy computes a product with a temporary operand in place from this
# size, and may swap the operands, which can move the last bit.
_ELISION_BYTES = 256 * 1024


def _chunks(count: int, *sizes: int) -> list:
    """Row slices of a batch of ``count`` trials whose complex arrays of
    shape (rows, size) stay below the elision size for every point array
    size given, or of one row each: then a trial's values take the same
    path as in a run of one trial at a time."""
    rows = max(1, (_ELISION_BYTES - 1) // (np.dtype(complex).itemsize * max(*sizes, 1)))
    return [slice(start, start + rows) for start in range(0, count, rows)]


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
    subset of the record names; any other name raises ValueError.  Each
    identity compares level m with level m - 1, so m < 1 raises
    ValueError, as do fewer than one trial or pair.  The random
    polynomials of each identity are drawn up front and checked in
    batches.
    """
    if m < 1:
        raise ValueError(f"verification needs depth m >= 1, got {m}")
    if trials < 1 or pairs < 1:
        raise ValueError(f"verification needs trials >= 1 and pairs >= 1, "
                         f"got trials={trials}, pairs={pairs}")
    w = default_root(rmap) if w is None else as_point(w)
    wanted = None if identities is None else set(identities)
    if wanted is not None and not wanted <= TOLERANCES.keys():
        raise ValueError(f"unknown identities {sorted(wanted - TOLERANCES.keys())}; "
                         f"choose from {sorted(TOLERANCES)}")

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
        for level in range(model.depth, 0, -1):
            pushed = pushforward(model.levels[level], rmap)
            defect, ok = measure_match_defect(pushed, model.levels[level - 1])
            worst = max(worst, defect)
            exact = exact and ok
        records.append(_record("invariance", rmap, w, m, k, worst,
                               extra_pass=exact))

    if want("isometry"):
        fs = random_polynomials(rng, trials, 2)
        worst = max(verify_isometry(model, fs[rows], k)
                    for rows in _chunks(trials, model.dim(k)))
        records.append(_record("isometry", rmap, w, m, k, worst))

    if want("covariance"):
        a, f, g = random_trials(rng, trials, (2, 2, 2))
        worst = max(verify_covariance(model, a[rows], f[rows], g[rows], k)
                    for rows in _chunks(trials, model.dim(k), model.fibers(k).points.size))
        records.append(_record("covariance", rmap, w, m, k, worst))

    if want("transfer_unitality"):
        fib = samples[-1].fibers
        ones = fib.average(ONE.evaluate(fib.points, fib.inf_mask))
        worst = float(np.max(np.abs(ones - 1.0)))
        records.append(_record("transfer_unitality", rmap, w, m, k, worst))

    if want("transfer_two_path"):
        a = random_polynomial(rng, 2)
        worst = 0.0
        powers = (0, 1, 2, 3, 5, 8, min(m, 10))
        # Every power reads a level of one tree; level k of a deeper tree
        # is built exactly as in a depth-k tree.  transfer_power solves every
        # fiber of the same orbit and averages fiber by fiber, against the
        # tree's weights, mirrored fibers and quadrature; the tests hold
        # transfer_power to the scalar path and the closed form.
        # The powers share one orbit solve: each reuses the levels of the
        # one before and solves only the deeper ones.
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
        xi, eta, a = random_trials(rng, pairs, (2, 2, 1))
        residuals = [verify_representation(model, xi[rows], eta[rows], a[rows], k)
                     for rows in _chunks(pairs, model.dim(k), model.fibers(k).points.size)]
        exact = all(r1 == 0.0 for r1, _ in residuals)
        worst = max(r2 for _, r2 in residuals)
        records.append(_record("representation", rmap, w, m, k, worst,
                               extra_pass=exact))

    if want("key_lemma"):
        worst = 0.0
        symbols = random_polynomials(rng, 3, 2)
        for N, a in zip((0, max(1, len(basis) // 2), len(basis)), symbols):
            worst = max(worst, verify_key_lemma(model, basis, N, a, k))
        records.append(_record("key_lemma", rmap, w, m, k, worst,
                               N=len(basis)))

    if want("frame_bound"):
        lows, highs = verify_frame_bound(model, basis, k)
        previous = np.concatenate(([0.0], highs[:-1]))
        monotone = not np.any(highs < previous - 1e-10)
        residual = float(np.max(highs - 1.0, initial=0.0))
        ok = monotone and bool(np.all(-lows <= 1e-10))
        records.append(_record("frame_bound", rmap, w, m, k, residual,
                               N=len(basis), extra_pass=ok))

    if want("vanishing_tail"):
        branch = [d.point for d in branch_points_on_julia(rmap, sample)]
        if branch:
            dists = sample.branch_distances.min(axis=0)
            center_idx = int(np.argmax(dists))
            center = sample.atom(center_idx)
            radius = min(0.45 * float(dists[center_idx]), 0.5)
        else:
            center = sample.atom(0)
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
