"""Finite operator model on one preimage-tree level step, plus the identity harness.

The square-summable space over the balanced measure is modeled on one
step of a preimage tree: the depth-(m-1) atoms, the parents, and the
depth-m atoms, the children, with their exact measure weights.  There the
composition operator is the parent-lookup matrix from the parents to the
children, its weighted adjoint is literally the fiber-averaging transfer
operator, and the identities below hold up to roundoff, not discretization:

* isometry of the composition operator,
* the covariance relation (adjoint conjugation equals multiplication by
  the transferred symbol),
* the representation relations of the module structure,
* the frame bound and reconstruction sums for a bump basis,
* the vanishing-tail reconstruction for functions that vanish near the
  branch points.

Each is a statement about one application of the map, which is exactly
where the discrete pushforward identity makes them exact.

C C* is the conditional expectation onto sibling groups, so it couples
only siblings, and C* M C is diagonal.  The model reaches sibling groups
one way: each child has a slot among the children of its parent, and a
vector on the children is put into (parents, width) blocks by that slot.
The adjoint sums each parent's slots; the partial frame sum is one block
of at most degree x degree per parent, built as one running sum over the
basis, which the frame bound, the vanishing tail and the key lemma's
first path all read.  The frame bound reads every prefix of the basis in
one pass, and blocks of two take their spectra in closed form.  The dense
level matrices below are only the reference that tests compare against.

The model is two levels of an enumerated tree, the parents and the
children, with no copies and no tree behind them.  A suite builds one
enumerated tree rooted at w, to the deepest level that a record reads:
m for the model and the invariance check, the powers of the two-path
transfer check, and, where the Julia samples read the map's enumerated
tree (they keep two branches per node from the default root, which for
a map of degree 2 is every branch), the samples' level.  Once the
samples are read the suite keeps only the levels its records read.  The
basis net continues the sample's net that sized its radius.  The checks
read the fibers, sibling fibers, power tables and cover tables that each
level, fiber table and Julia sample owns, so over one suite run each
point set is solved once and each basis evaluated on it once.  Sums over
the basis run over each point's cover, the few elements nonzero there,
never over whole (elements, points) arrays.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .bimodule_basis import (JuliaSample, PartitionOfUnity, VanishingFunction, _julia_samples,
                             _sample_depth, _samples_read_enumerated_tree,
                             branch_points_on_julia, branch_separation_radius,
                             build_basis, net_radius, reconstruction_sum)
from .errors import DegenerateSample, EigSolverFailure, NoVanishingTail
from .lyubich_measure import (compensated_sum, default_root, integrate,
                              measure_match_defect, pushforward)
from .preimage_solver import AtomicMeasure, PreimageTree, iterated_preimages
from .rational_map import RationalMap
from .sphere import SpherePoint, _same_bits, as_point, point_json
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
    """One application of the map: the step from an enumerated tree's
    depth-(m-1) measure, the parents, to its depth-m measure, the
    children, each the tree's own level object.

    Each level owns what is derived from its points (its fibers, sibling
    fibers, power table and cover tables).  The model keeps what reads
    both levels: :attr:`siblings`, and :meth:`frame_vectors` keyed by
    basis.  Its arrays are read-only.
    """

    parents: AtomicMeasure
    children: AtomicMeasure
    _frames: dict = field(default_factory=dict, repr=False)

    @cached_property
    def siblings(self):
        """The sibling blocks of the children: each child's slot among its
        siblings, its distance from its parent's first child (``parent``
        never decreases), and each parent's child count, the number of
        slots it fills."""
        lvl = self.children
        counts = np.bincount(lvl.parent, minlength=self.parents.size)
        slot = np.arange(lvl.size) - (np.cumsum(counts) - counts)[lvl.parent]
        for array in (slot, counts):
            array.setflags(write=False)
        return slot, counts

    def _blocks(self, v: np.ndarray) -> np.ndarray:
        """The vectors along the last axis of ``v`` on the children, put
        into (..., parents, width) sibling blocks, with 0 in the padded
        slots."""
        slot, counts = self.siblings
        out = np.zeros(v.shape[:-1] + (counts.size, int(counts.max())), dtype=v.dtype)
        out[..., self.children.parent, slot] = v
        return out

    def frame_vectors(self, basis: PartitionOfUnity) -> np.ndarray:
        """The basis on the children regrouped by sibling block after the
        sqrt(weight) similarity, computed once per basis: ``V``
        (parents, width, elements) with ``V[p, s, i] = u_i(x) sqrt(w_x / w_p)``
        for the child x in slot s of parent p, and zero padding."""
        if basis not in self._frames:
            lvl = self.children
            slot, counts = self.siblings
            scale = np.sqrt(lvl.weights / self.parents.weights[lvl.parent])
            V = np.zeros((self.parents.size, int(counts.max()), len(basis)))
            cover = lvl.cover(basis)
            for members, u in zip(cover.index, cover.value):
                hit = u != 0.0
                V[lvl.parent[hit], slot[hit], members[hit]] = u[hit] * scale[hit]
            V.setflags(write=False)
            self._frames[basis] = V
        return self._frames[basis]

    def composition_matrix(self) -> np.ndarray:
        """The parent-lookup matrix from the parents to the children (rows
        are one-hot); dense reference."""
        lvl = self.children
        mat = np.zeros((lvl.size, self.parents.size))
        mat[np.arange(lvl.size), lvl.parent] = 1.0
        return mat

    def adjoint_matrix(self) -> np.ndarray:
        """Adjoint of the composition matrix in the weighted inner products.

        Row j averages the children of parent j with weight ratios; on a
        fully enumerated tree this is exactly the fiber-averaging transfer
        operator restricted to the atoms.  Dense reference.
        """
        lvl = self.children
        mat = np.zeros((self.parents.size, lvl.size))
        mat[lvl.parent, np.arange(lvl.size)] = lvl.weights / self.parents.weights[lvl.parent]
        return mat

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """Adjoint composition applied to the vectors along the last axis
        of ``v`` on the children, without the dense matrix: each parent sums
        its children's v * w from 0, in level order, and divides by its
        weight."""
        blocks = self._blocks(v * self.children.weights)
        out = np.zeros(blocks.shape[:-1], dtype=complex)
        for s in range(blocks.shape[-1]):
            out = out + blocks[..., s]
        return out / self.parents.weights

    def weighted_norm(self, level: AtomicMeasure, matrix: np.ndarray) -> float:
        """Operator norm on ``level`` with the weighted inner product; dense reference."""
        d = np.sqrt(level.weights)
        sim = (matrix * (d[:, None] / d[None, :]))
        return float(np.linalg.norm(sim, 2))


def _inner(level: AtomicMeasure, fv: np.ndarray, gv: np.ndarray | None = None):
    """The weighted inner products <fv, gv> on ``level`` along the last
    axis; with ``gv`` omitted, the squared norms <fv, fv>, whose imaginary
    parts are not summed."""
    terms = fv * np.conj(fv if gv is None else gv) * level.weights
    return compensated_sum(terms.real, None if gv is None else terms.imag)


def build_model(rmap: RationalMap, w, m: int, tree: PreimageTree | None = None) -> OperatorModel:
    """The step from depth m - 1 to depth m for a map and non-exceptional
    root: levels m - 1 and m of its enumerated tree, validated; m < 1
    raises ValueError, as a depth-0 tree takes no step.

    ``tree``, if given, must be ``rmap``'s enumerated tree (its weight base
    the degree) rooted at w to the bit and at least m deep, and the model
    reads its level objects; any other tree raises ValueError.
    """
    if m < 1:
        raise ValueError(f"a model needs depth m >= 1, got {m}")
    w = as_point(w)
    if tree is None:
        tree = iterated_preimages(rmap, w, m)
    elif not (tree.map is rmap and tree.weight_base == rmap.degree
              and _same_bits(tree.root, w) and tree.depth >= m):
        raise ValueError(f"a model of depth {m} needs the map's enumerated tree rooted at "
                         f"{w!r}, at least {m} deep; got a tree of depth {tree.depth} "
                         f"rooted at {tree.root!r}")
    parents, children = tree.levels[m - 1], tree.levels[m]
    parents.validate()
    children.validate()
    return OperatorModel(parents, children)


# ----------------------------------------------------------------------
# identity checks


# Isometry, covariance and representation take a batch wherever they take
# a polynomial, and return the worst residual over its rows.


def verify_isometry(model: OperatorModel, f: TestFunction | PolynomialBatch) -> float:
    """| ||Cf||^2 on the children  -  ||f||^2 on the parents |."""
    fv = f.evaluate(model.parents.powers)
    cf = fv[..., model.children.parent]
    return float(np.max(np.abs(_inner(model.children, cf) - _inner(model.parents, fv))))


def verify_covariance(model: OperatorModel, a: TestFunction | PolynomialBatch,
                      f: TestFunction | PolynomialBatch,
                      g: TestFunction | PolynomialBatch) -> float:
    """|<M_a Cf, Cg> on the children - <M_(La) f, g> on the parents|.

    The right side evaluates the transferred symbol through independent
    fiber solves, not through the tree.
    """
    lvl = model.children
    prev = model.parents
    av = a.evaluate(lvl.powers)
    fv = f.evaluate(prev.powers)
    gv = g.evaluate(prev.powers)
    lhs_terms = av * fv[..., lvl.parent] * np.conj(gv[..., lvl.parent]) * lvl.weights
    fib = prev.fibers
    la = fib.average(a.evaluate(fib.powers))
    rhs_terms = la * fv * np.conj(gv) * prev.weights
    gap = (compensated_sum(lhs_terms.real, lhs_terms.imag)
           - compensated_sum(rhs_terms.real, rhs_terms.imag))
    # hypot of the parts rounds as abs of a Python complex does.
    return float(np.max(np.hypot(np.real(gap), np.imag(gap))))


def verify_representation(model: OperatorModel, xi: TestFunction | PolynomialBatch,
                          eta: TestFunction | PolynomialBatch,
                          a: TestFunction | PolynomialBatch) -> tuple[float, float]:
    """Residuals of the two representation relations.

    First: multiplication before or after the symbol map agrees exactly
    as matrices (asserted zero by construction, on every row of a batch).
    Second: the operator norm gap between the composed pairing and
    multiplication by the module inner product on the parents.
    """
    powers = model.children.powers
    av = a.evaluate(powers)
    xv = xi.evaluate(powers)
    # C has a single one per child (row); scale those entries as the row
    # scalings would, so both sides take the identical floating-point path.
    # The products are named: from 256 KiB numpy computes ``x * temporary``
    # in place as ``temporary * x``, and a complex product can differ from
    # its mirror image in the last bit.
    comp = np.ones(model.children.size)
    x_comp = xv * comp
    a_x = av * xv
    residual1 = float(np.max(np.abs(av * x_comp - a_x * comp)))

    # C* M C is the diagonal fiber average of conj(xi) * eta; the weighted
    # norm of a diagonal is its largest entry.
    pairing = model.apply_adjoint(np.conj(xv) * eta.evaluate(powers))
    fib = model.parents.fibers
    ip_vals = fib.average((xi.conj() * eta).evaluate(fib.powers))
    residual2 = float(np.max(np.abs(pairing - ip_vals)))
    return residual1, residual2


def verify_key_lemma(model: OperatorModel, basis: PartitionOfUnity, N: int,
                     a: TestFunction) -> float:
    """Two evaluations of the same reconstruction sum must agree pointwise.

    Path one applies the partial frame sum's sibling blocks to the values
    of a on the level (``_apply_frame_sum``), with the tree's weights and
    parents; path two evaluates each element against independently
    root-found fibers of the mapped atoms (``reconstruction_sum``), summing
    over the elements nonzero at each atom only.
    """
    lvl = model.children
    # Path two first: its fiber solve is the larger allocation, and the
    # frame vectors built after it stay below that peak.
    path_b = reconstruction_sum(lvl, basis, a, min(N, len(basis)))
    path_a = _apply_frame_sum(model, basis, N, a.evaluate(lvl.powers))
    return float(np.max(np.abs(path_a - path_b))) if lvl.size else 0.0


def _frame_matrix(model: OperatorModel, basis: PartitionOfUnity, N: int) -> np.ndarray:
    """Partial frame sum on the children; dense reference."""
    lvl = model.children
    comp = model.composition_matrix()
    proj = comp @ model.adjoint_matrix()
    count = min(N, len(basis))
    U = basis.member_matrix(lvl.points, lvl.inf_mask) if count else None
    total = np.zeros((lvl.size, lvl.size), dtype=complex)
    for i in range(count):
        u = U[i]
        total += u[:, None] * proj * u[None, :]
    return total


def _frame_sums(model: OperatorModel, basis: PartitionOfUnity):
    """The partial frame sums on the children after the sqrt(weight) similarity,
    B_N for N = 0, 1, ..., len(basis), as (parents, width, width) stacks of
    real symmetric sibling blocks.

    One running sum B_N = B_(N-1) + v_N v_N^T over the elements of
    :meth:`OperatorModel.frame_vectors` yields them in turn, each as the
    same read-only view of the one array that the next step adds to.
    """
    V = model.frame_vectors(basis)
    total = np.zeros(V.shape[:2] + V.shape[1:2])
    view = total.view()
    view.setflags(write=False)
    yield view
    for i in range(V.shape[2]):
        v = V[..., i]
        total += v[:, :, None] * v[:, None, :]
        yield view


def _frame_sum(model: OperatorModel, basis: PartitionOfUnity, N: int) -> np.ndarray:
    """The partial frame sum B_N of :func:`_frame_sums`, N capped at the
    basis size."""
    return next(islice(_frame_sums(model, basis), min(N, len(basis)), None))


def _apply_frame_sum(model: OperatorModel, basis: PartitionOfUnity, N: int,
                     av: np.ndarray) -> np.ndarray:
    """The partial frame sum on the children applied to ``av``: its sibling
    blocks act on sqrt(weight) * av, and the similarity is undone."""
    lvl = model.children
    slot, _ = model.siblings
    root_w = np.sqrt(lvl.weights)
    product = _frame_sum(model, basis, N) @ model._blocks(root_w * av)[..., None]
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


def verify_frame_bound(model: OperatorModel, basis: PartitionOfUnity):
    """Smallest and largest eigenvalue of every partial frame sum on the
    children, as two arrays whose entry N - 1 belongs to the sum of the first N
    elements, N = 1..len(basis), read in one pass of the running sum.

    The sum of element-conjugated projections is positive and bounded by
    the identity; eigenvalues are monotone non-decreasing in N.
    """
    _, counts = model.siblings
    lows = np.empty(len(basis))
    highs = np.empty(len(basis))
    sums = _frame_sums(model, basis)
    next(sums)  # B_0, the empty sum
    for n, blocks in enumerate(sums):
        low, high = _block_extremes(blocks, counts)
        lows[n], highs[n] = low.min(), high.max()
    return lows, highs


def verify_vanishing_reconstruction(model: OperatorModel, basis: PartitionOfUnity,
                                    a: VanishingFunction) -> tuple[int, float]:
    """Smallest index M past which a meets no element, and the norm gap
    between the a-weighted partial frame sum at M and multiplication by a.

    Raises NoVanishingTail when a meets every element.
    """
    meets = a.meets_elements(basis)
    if basis and meets.all():
        raise NoVanishingTail(
            f"{a.fn.name} meets all {len(basis)} elements")
    hits = np.flatnonzero(meets)
    M = int(hits[-1]) + 1 if hits.size else 0
    blocks = _frame_sum(model, basis, M)
    # diag(a) (frame - I) splits into the same sibling blocks; padded rows
    # carry a = 0 and padded columns of (frame - I) are zero off the diagonal.
    a_blocks = model._blocks(a.fn.evaluate(model.children.powers))
    gap = a_blocks[:, :, None] * (blocks - np.eye(blocks.shape[1]))
    return M, float(np.linalg.norm(gap, 2, axis=(1, 2)).max())


# ----------------------------------------------------------------------
# the verification suite


def _record(identity: str, rmap: RationalMap, w: SpherePoint, m: int,
            residual: float, N: int | None = None, extra_pass: bool = True) -> dict:
    tol = TOLERANCES[identity]
    rec = {
        "identity": identity,
        "map": rmap.name or repr(rmap),
        "w": point_json(w),
        "m": m,
        "k": m,
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
                  count: int = 32, count_cap: int = 256) -> PartitionOfUnity:
    """Basis sized for the suite: a net of about ``count`` bumps whose
    supports respect the separation radius.

    The radius is read from the sample's greedy net, which the basis net
    continues where its pool is the whole sample.  A sample of at most
    ``count`` points raises DegenerateSample: that net covers it at
    radius 0, and a count below 1 raises ValueError.
    """
    if count < 1:
        raise ValueError(f"a basis needs count >= 1, got {count}")
    r_sep = branch_separation_radius(rmap, sample)
    radius = net_radius(sample, count)
    if radius <= 0.0:
        raise DegenerateSample(f"a basis of {count} elements needs a sample of more than "
                               f"{count} points; this one has {sample.size} points")
    r = min(radius * 1.000001, r_sep / 3.0)
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
    ValueError, as do fewer than one trial, pair or basis element.  The random
    polynomials of each identity are drawn up front and checked in
    batches.
    """
    if m < 1:
        raise ValueError(f"verification needs depth m >= 1, got {m}")
    if min(trials, pairs, basis_count) < 1:
        raise ValueError(f"verification needs trials >= 1 and pairs >= 1 and basis_count >= 1, "
                         f"got trials={trials}, pairs={pairs}, basis_count={basis_count}")
    w = default_root(rmap) if w is None else as_point(w)
    wanted = None if identities is None else set(identities)
    if wanted is not None and not wanted <= TOLERANCES.keys():
        raise ValueError(f"unknown identities {sorted(wanted - TOLERANCES.keys())}; "
                         f"choose from {sorted(TOLERANCES)}")

    def want(name):
        return wanted is None or name in wanted

    rng = np.random.default_rng(seed)
    # The basis sample feeds the last three identities only.  At the
    # default sizes both samples read level 12 of one tree.
    with_basis = any(map(want, ("key_lemma", "frame_bound", "vanishing_tail")))
    sizes = (((sample_size,) if with_basis else ())
             + ((unitality_points,) if want("transfer_unitality") else ()))
    powers = (0, 1, 2, 3, 5, 8, min(m, 10))
    depth = max(m, *powers) if want("transfer_two_path") else m
    # One enumerated tree rooted at w serves every record; the samples'
    # level, if they read this tree, goes once they are read.
    shared = bool(sizes) and _samples_read_enumerated_tree(rmap, w)
    tree = iterated_preimages(rmap, w, max(depth, *map(_sample_depth, sizes)) if shared else depth)
    samples = _julia_samples(rmap, sizes, seed, tree if shared else None) if sizes else []
    model = build_model(rmap, w, m, tree)
    levels = tree.levels[:depth + 1]
    del tree
    for level in levels:
        level.validate()
    records = []

    if want("invariance"):
        worst = 0.0
        exact = True
        for level in range(m, 0, -1):
            pushed = pushforward(levels[level], rmap)
            defect, ok = measure_match_defect(pushed, levels[level - 1])
            worst = max(worst, defect)
            exact = exact and ok
        records.append(_record("invariance", rmap, w, m, worst,
                               extra_pass=exact))

    if want("isometry"):
        fs = random_polynomials(rng, trials, 2)
        worst = max(verify_isometry(model, fs[rows])
                    for rows in _chunks(trials, model.children.size))
        records.append(_record("isometry", rmap, w, m, worst))

    if want("covariance"):
        a, f, g = random_trials(rng, trials, (2, 2, 2))
        worst = max(verify_covariance(model, a[rows], f[rows], g[rows])
                    for rows in _chunks(trials, model.children.size, model.parents.fibers.size))
        records.append(_record("covariance", rmap, w, m, worst))

    if want("transfer_unitality"):
        fib = samples[-1].fibers
        ones = fib.average(ONE.evaluate(fib.points, fib.inf_mask))
        worst = float(np.max(np.abs(ones - 1.0)))
        records.append(_record("transfer_unitality", rmap, w, m, worst))

    if want("transfer_two_path"):
        a = random_polynomial(rng, 2)
        worst = 0.0
        # Every power reads a level of the suite's tree; level k of a deeper
        # tree is built exactly as in a depth-k tree.  transfer_power solves
        # every fiber of the same orbit and averages fiber by fiber, against
        # the tree's weights, mirrored fibers and quadrature; the tests hold
        # transfer_power to the scalar path and the closed form.
        # The powers share one orbit solve: each reuses the levels of the
        # one before and solves only the deeper ones.
        for power in powers:
            via_power = transfer_power(rmap, a, power, w)
            via_tree = integrate(levels[power], a)
            worst = max(worst, abs(via_power - via_tree))
        records.append(_record("transfer_two_path", rmap, w, m, worst))

    if with_basis:
        sample = samples[0]
        basis = default_basis(rmap, sample, count=basis_count)

    if want("representation"):
        xi, eta, a = random_trials(rng, pairs, (2, 2, 1))
        residuals = [verify_representation(model, xi[rows], eta[rows], a[rows])
                     for rows in _chunks(pairs, model.children.size, model.parents.fibers.size)]
        exact = all(r1 == 0.0 for r1, _ in residuals)
        worst = max(r2 for _, r2 in residuals)
        records.append(_record("representation", rmap, w, m, worst,
                               extra_pass=exact))

    if want("key_lemma"):
        worst = 0.0
        symbols = random_polynomials(rng, 3, 2)
        for N, a in zip((0, max(1, len(basis) // 2), len(basis)), symbols):
            worst = max(worst, verify_key_lemma(model, basis, N, a))
        records.append(_record("key_lemma", rmap, w, m, worst,
                               N=len(basis)))

    if want("frame_bound"):
        lows, highs = verify_frame_bound(model, basis)
        previous = np.concatenate(([0.0], highs[:-1]))
        monotone = not np.any(highs < previous - 1e-10)
        residual = float(np.max(highs - 1.0, initial=0.0))
        ok = monotone and bool(np.all(-lows <= 1e-10))
        records.append(_record("frame_bound", rmap, w, m, residual,
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
        M, residual = verify_vanishing_reconstruction(model, basis, vf)
        records.append(_record("vanishing_tail", rmap, w, m, residual, N=M))

    return {
        "config": {
            "map": rmap.describe(),
            "w": point_json(w),
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
