import numpy as np
import pytest

from lyubich_lab import _fiber, transfer_operator
from lyubich_lab.bimodule_basis import julia_sample
from lyubich_lab.errors import BudgetExceeded
from lyubich_lab.lyubich_measure import integrate, measure_from_tree
from lyubich_lab.preimage_solver import iterated_preimages, preimages
from lyubich_lab.rational_map import RationalMap, builtin_map, evaluate_array
from lyubich_lab.sphere import INFINITY, as_point, sphere_points
from lyubich_lab.transfer_operator import (apply_transfer, gather_fibers,
                                           inner_product, sup_norm_2,
                                           transfer_function, transfer_power)
from lyubich_lab import test_functions as tf


@pytest.fixture(scope="module")
def quad_map():
    return builtin_map("quad")


@pytest.fixture(scope="module")
def cheb():
    return builtin_map("chebyshev")


def _power_sum_polynomials(rmap, top):
    """Power sums of the fiber over w as polynomials in w (Newton's
    identities); valid for polynomial maps, where the fiber polynomial's
    leading coefficient does not depend on w.

    The fiber solves P(z) - w*den0 = 0, so only the product of the roots
    (the top elementary symmetric function) carries the w-dependence.
    """
    n = rmap.degree
    lead = rmap._num_pad[n]
    den0 = rmap.den[0]
    elementary = [np.array([1.0 + 0j])]
    for i in range(1, n + 1):
        sign = (-1.0) ** i
        if i < n:
            e = np.array([sign * rmap._num_pad[n - i] / lead], dtype=complex)
        else:
            e = np.array([sign * rmap._num_pad[0] / lead,
                          -sign * den0 / lead], dtype=complex)
        elementary.append(e)
    sums = [np.array([float(n)], dtype=complex)]
    for k in range(1, top + 1):
        acc = np.zeros(1, dtype=complex)
        for i in range(1, min(k - 1, n) + 1):
            term = np.convolve(elementary[i], sums[k - i]) * ((-1.0) ** (i - 1))
            acc = _poly_add(acc, term)
        if k <= n:
            acc = _poly_add(acc, ((-1.0) ** (k - 1)) * k * elementary[k])
        sums.append(acc)
    return sums


def _poly_add(a, b):
    size = max(a.size, b.size)
    out = np.zeros(size, dtype=complex)
    out[: a.size] += a
    out[: b.size] += b
    return out


def _closed_form_transfer(rmap, a):
    """The transfer of a as an exact polynomial, when a is a polynomial in
    pure powers of z or conj(z) and the map itself is a polynomial; None
    otherwise.  An oracle for the fiber solves."""
    if a.batch is None or rmap.den.size != 1:
        return None
    keys = a.batch.keys
    if any(j > 0 and k > 0 for j, k in keys):
        return None
    top = max((max(j, k) for j, k in keys), default=0)
    sums = _power_sum_polynomials(rmap, top)
    n = rmap.degree
    coeffs: dict = {}
    for (j, k), c in zip(keys, a.batch.coeffs[0].tolist()):
        if j == 0 and k == 0:
            coeffs[(0, 0)] = coeffs.get((0, 0), 0j) + c
            continue
        if k == 0:
            poly = sums[j] / n
            for i, b in enumerate(poly):
                if b != 0:
                    coeffs[(i, 0)] = coeffs.get((i, 0), 0j) + c * b
        else:
            # sum of conj(z)^k over the fiber is the conjugate power sum
            poly = sums[k] / n
            for i, b in enumerate(poly):
                if b != 0:
                    coeffs[(0, i)] = coeffs.get((0, i), 0j) + c * b.conjugate()
    return tf.TestFunction.polynomial(coeffs, name=f"L[{a.name}] closed form")


def _brute_force_transfer(rmap, a, w):
    """Independent fiber enumeration through the companion-matrix solver."""
    coeffs = (rmap._num_pad - complex(w) * rmap._den_pad)
    roots = np.roots(coeffs[::-1])
    # simple fibers only (used at generic points)
    return sum(a(z) for z in roots) / rmap.degree


def test_unitality(quad_map, cheb):
    rng = np.random.default_rng(21)
    for rmap in (quad_map, cheb):
        for _ in range(50):
            w = complex(rng.normal(scale=2), rng.normal(scale=2))
            assert abs(apply_transfer(rmap, tf.ONE, w) - 1.0) < 1e-12


def test_transfer_of_z_cancels(quad_map):
    assert abs(apply_transfer(quad_map, tf.Z, 0.3 + 0.7j)) < 1e-12


def test_transfer_abs2_is_abs_w(quad_map):
    rng = np.random.default_rng(22)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        got = apply_transfer(quad_map, tf.ABS2, w)
        assert got.real == pytest.approx(abs(w), rel=1e-10)
        assert abs(got.imag) < 1e-12
        brute = _brute_force_transfer(quad_map, tf.ABS2, w)
        assert abs(got - brute) < 1e-8


def test_positivity_on_fiber(cheb):
    rng = np.random.default_rng(23)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        value = apply_transfer(cheb, tf.ABS2, w)
        assert value.real >= -1e-14


def test_module_property(quad_map, cheb):
    rng = np.random.default_rng(24)
    for rmap in (quad_map, cheb):
        a = tf.random_polynomial(rng, 2)
        b = tf.random_polynomial(rng, 2)
        lifted = tf.TestFunction.from_callable(
            lambda p, i: b.evaluate(*evaluate_array(rmap, p, i)), "b o R") * a
        for w in (0.4 + 0.3j, -1.2 + 0j, 0.9j):
            lhs = apply_transfer(rmap, lifted, w)
            rhs = b(w) * apply_transfer(rmap, a, w)
            assert abs(lhs - rhs) < 1e-10


def test_power_zero_identity(cheb):
    a = tf.RE2
    assert transfer_power(cheb, a, 0, 1.5) == a(1.5)


def test_power_of_one_stays_one(quad_map):
    assert abs(transfer_power(quad_map, tf.ONE, 5, 0.77) - 1.0) < 1e-12


@pytest.mark.parametrize("name,w", [("quad", 1.0), ("basilica", 0.25),
                                    ("chebyshev", 2.0)])
def test_two_path_equality(name, w):
    rmap = builtin_map(name)
    rng = np.random.default_rng(25)
    a = tf.random_polynomial(rng, 2)
    for m in (0, 1, 2, 4, 7, 10):
        tree = iterated_preimages(rmap, w, m)
        via_power = transfer_power(rmap, a, m, w)
        via_tree = integrate(measure_from_tree(tree), a)
        assert abs(via_power - via_tree) < 1e-10


def _recursive_power(rmap, a, m, w):
    """Reference for transfer_power: a recursion over the orbit of w with
    one scalar fiber solve per node."""
    p = as_point(w)
    if m == 0:
        return complex(a(p))
    total = 0j
    for point, mult in preimages(rmap, p).atoms:
        total += mult * _recursive_power(rmap, a, m - 1, point)
    return total / rmap.degree


NEWTON = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")


def _bounded(z, inf_mask):
    r2 = np.abs(z) ** 2
    return np.where(inf_mask, 1.0, (r2 + 0.3 * z + 1j) / (1 + r2))


# Bounded on the sphere, so defined at the infinite atoms of Newton's map.
BOUNDED = tf.TestFunction.from_callable(_bounded, "bounded")


@pytest.mark.parametrize("rmap,w,a", [
    (builtin_map("quad"), 0.3 + 0.8j, None),
    (builtin_map("basilica"), None, None),
    (builtin_map("chebyshev"), 2.0, None),
    # Infinity is a fixed point and 0 a double pole: every level holds an
    # infinite atom and the rows the batched engine hands to the scalar path.
    (NEWTON, INFINITY, BOUNDED),
], ids=["quad", "basilica", "chebyshev", "newton-inf"])
def test_power_matches_the_scalar_recursion(rmap, w, a):
    rng = np.random.default_rng(47)
    if w is None:
        w = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1))
    if a is None:
        a = tf.random_polynomial(rng, 2)
    for m in (1, 2, 3, 5, 8):
        assert abs(transfer_power(rmap, a, m, w) - _recursive_power(rmap, a, m, w)) <= 1e-12


# A polynomial in pure powers of z and conj(z), whose transfers stay so.
PURE_POWERS = tf.TestFunction.polynomial({(1, 0): 0.3, (2, 0): 1.0, (0, 2): -0.5j,
                                          (0, 1): 0.2}, "pure powers")


def _closed_form_power(rmap, a, p):
    for _ in range(p):
        a = _closed_form_transfer(rmap, a)
    return a


@pytest.mark.parametrize("name,w", [("quad", 0.3 + 0.8j),
                                    ("basilica", 0.25 + 0.4j),
                                    ("chebyshev", -0.7 + 1.1j)])
def test_power_matches_the_iterated_closed_form(name, w):
    rmap = builtin_map(name)
    for p in range(11):
        exact = _closed_form_power(rmap, PURE_POWERS, p)(w)
        assert abs(transfer_power(rmap, PURE_POWERS, p, w) - exact) <= 1e-10


def test_power_over_a_critical_value_matches_the_closed_form():
    # The fiber of z^3 - 3z over -2 is (z - 1)^2 (z + 2): one double atom at
    # the critical point 1, as the closed form counts it.
    cubic = RationalMap([0, -3, 0, 1], [1])
    for p in range(7):
        exact = _closed_form_power(cubic, PURE_POWERS, p)(-2.0)
        assert abs(transfer_power(cubic, PURE_POWERS, p, -2.0) - exact) <= 1e-10


def test_power_beyond_the_atom_budget_raises_before_solving(monkeypatch, quad_map):
    def unexpected(*args, **kwargs):
        raise AssertionError("solved a fiber")

    monkeypatch.setattr(transfer_operator, "gather_fibers", unexpected)
    with pytest.raises(BudgetExceeded):
        transfer_power(quad_map, tf.ONE, 23, 0.77)


@pytest.fixture
def solves(monkeypatch):
    """The point counts of the gather_fibers calls transfer_power makes,
    from an empty memo."""
    calls = []
    gather = transfer_operator.gather_fibers

    def counting(rmap, points, inf_mask, *args, **kwargs):
        calls.append(points.size)
        return gather(rmap, points, inf_mask, *args, **kwargs)

    transfer_operator.clear_fiber_cache()
    monkeypatch.setattr(transfer_operator, "gather_fibers", counting)
    yield calls
    transfer_operator.clear_fiber_cache()


def test_power_memo_solves_only_missing_levels(solves):
    basilica = builtin_map("basilica")
    w = 0.3 + 0.4j
    transfer_power(basilica, tf.Z, 3, w)
    assert solves == [1, 2, 4]
    transfer_power(basilica, tf.ZBAR, 3, w)
    assert len(solves) == 3
    transfer_power(basilica, tf.Z, 5, w)
    assert solves[3:] == [8, 16]
    transfer_power(basilica, tf.ABS2, 3, w)
    assert len(solves) == 5


@pytest.mark.parametrize("change", ["clear", "point", "map"])
def test_power_memo_solves_again_after_a_change(solves, change):
    rmap, w = builtin_map("basilica"), 0.3 + 0.4j
    transfer_power(rmap, tf.Z, 4, w)
    if change == "clear":
        transfer_operator.clear_fiber_cache()
    elif change == "point":
        w = 0.3 - 0.4j
    else:
        rmap = builtin_map("basilica")
    del solves[:]
    transfer_power(rmap, tf.Z, 4, w)
    assert solves == [1, 2, 4, 8]


def _cold_power(rmap, a, m, w):
    transfer_operator.clear_fiber_cache()
    return transfer_power(rmap, a, m, w)


@pytest.mark.parametrize("rmap,w,a,powers", [
    (builtin_map("basilica"), 0.25 + 0.4j, None, (12, 3, 7, 12)),
    (NEWTON, INFINITY, BOUNDED, (8, 3, 5, 8)),
    # The deepest table holds 32768 atoms, above numpy's 16384-point
    # threshold for eliding temporaries.
    (builtin_map("basilica"), 0.25 + 0.4j, None, (15, 3, 12, 15)),
], ids=["basilica", "newton-inf", "basilica-32768"])
def test_power_memo_hits_equal_cold_solves(rmap, w, a, powers):
    rng = np.random.default_rng(48)
    functions = [a] if a is not None else [tf.random_polynomial(rng, 2) for _ in range(2)]
    transfer_operator.clear_fiber_cache()
    warm = [transfer_power(rmap, f, m, w) for m in powers for f in functions]
    cold = [_cold_power(rmap, f, m, w) for m in powers for f in functions]
    assert warm == cold


def test_kept_orbit_holds_no_powers():
    # Each call evaluates on a fresh power table, so the kept orbit holds
    # only its fiber tables, never arrays of z**j that grow with the depth.
    basilica, w = builtin_map("basilica"), 0.25 + 0.4j
    rng = np.random.default_rng(49)
    transfer_operator.clear_fiber_cache()
    for m in (6, 4):
        transfer_power(basilica, tf.random_polynomial(rng, 2), m, w)
    assert not any("powers" in vars(fib) for fib in transfer_operator._orbit[0][1])


def test_inner_product_identity_element(quad_map):
    ip = inner_product(quad_map, tf.ONE, tf.ONE)
    for w in (0.2, 1 + 1j, -0.7j):
        assert abs(ip(w) - 1.0) < 1e-12


def test_inner_product_zz_gives_modulus(quad_map):
    ip = inner_product(quad_map, tf.Z, tf.Z)
    for w in (0.5 + 0.1j, 2.0 + 0j, -1.3j):
        assert ip(w).real == pytest.approx(abs(w), rel=1e-10)


def test_inner_product_conjugate_symmetry(cheb):
    rng = np.random.default_rng(26)
    xi = tf.random_polynomial(rng, 2)
    eta = tf.random_polynomial(rng, 2)
    fwd = inner_product(cheb, xi, eta)
    bwd = inner_product(cheb, eta, xi)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        assert abs(fwd(w) - bwd(w).conjugate()) < 1e-12


@pytest.mark.parametrize("closure", ["transfer_function", "inner_product"])
def test_closures_solve_a_point_array_in_one_call(monkeypatch, cheb, closure):
    rng = np.random.default_rng(49)
    xi, eta = tf.random_polynomial(rng, 2), tf.random_polynomial(rng, 2)
    if closure == "transfer_function":
        f, integrand = transfer_function(cheb, xi), xi
    else:
        f, integrand = inner_product(cheb, xi, eta), xi.conj() * eta
    # 2 is a fixed point, -2 the critical value with the double preimage 0
    points = np.concatenate([[2.0, -2.0], rng.normal(size=30) + 1j * rng.normal(size=30)])
    gathers, singles = [], []
    gather, single = transfer_operator.gather_fibers, _fiber.solve_fiber

    def counting_gather(rmap, pts, *args, **kwargs):
        gathers.append(pts.size)
        return gather(rmap, pts, *args, **kwargs)

    def counting_single(*args):
        singles.append(args[1])
        return single(*args)

    monkeypatch.setattr(transfer_operator, "gather_fibers", counting_gather)
    monkeypatch.setattr(_fiber, "solve_fiber", counting_single)
    values = f.evaluate(points)
    monkeypatch.undo()
    assert gathers == [points.size]
    assert singles == []
    for value, w in zip(values, points):
        assert abs(value - apply_transfer(cheb, integrand, w)) <= 1e-14


def test_sup_norm_basics(quad_map):
    circle = [np.exp(2j * np.pi * t) for t in np.linspace(0, 1, 17)]
    assert sup_norm_2(quad_map, tf.ONE, circle) == pytest.approx(1.0, abs=1e-12)
    assert sup_norm_2(quad_map, tf.Z, circle) == pytest.approx(1.0, rel=1e-8)


def test_sup_norm_monotone_under_refinement(quad_map):
    coarse = [np.exp(2j * np.pi * t) for t in np.linspace(0, 1, 5)]
    fine = coarse + [1.3 * np.exp(2j * np.pi * t) for t in np.linspace(0, 1, 9)]
    a = sup_norm_2(quad_map, tf.Z, coarse)
    b = sup_norm_2(quad_map, tf.Z, fine)
    assert b >= a


def test_sup_norm_equals_pointwise_inner_products(monkeypatch, cheb):
    # -2 is the critical value; its fiber is the double root 0, which the
    # batched engine solves with the rest of the sample.
    sample = julia_sample(cheb, 64, seed=3).sphere_points() + [as_point(-2.0)]
    calls = []
    single = _fiber.solve_fiber

    def counting(*args):
        calls.append(args[1])
        return single(*args)

    rng = np.random.default_rng(45)
    for _ in range(3):
        xi = tf.random_polynomial(rng, 2)
        ip = inner_product(cheb, xi, xi)
        want = max(ip(w).real for w in sample) ** 0.5
        monkeypatch.setattr(_fiber, "solve_fiber", counting)
        got = sup_norm_2(cheb, xi, sample)
        monkeypatch.setattr(_fiber, "solve_fiber", single)
        assert abs(got - want) <= 1e-14
    assert calls == []


def test_cache_returns_identical_results(cheb):
    a = tf.random_polynomial(np.random.default_rng(27), 2)
    first = apply_transfer(cheb, a, 0.123 + 0.456j)
    second = apply_transfer(cheb, a, 0.123 + 0.456j)
    assert first == second


def test_concurrent_evaluation_matches_serial(cheb):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(30)
    a = tf.random_polynomial(rng, 2)
    points = [complex(rng.normal(), rng.normal()) for _ in range(200)]
    serial = [apply_transfer(cheb, a, w) for w in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda w: apply_transfer(cheb, a, w), points))
    assert serial == threaded


def test_concurrent_powers_match_serial():
    # Interleaved points and depths keep replacing and extending the orbit
    # memo while other threads read it; a short switch interval makes the
    # threads trade places inside transfer_power.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    basilica = builtin_map("basilica")
    rng = np.random.default_rng(31)
    functions = [tf.random_polynomial(rng, 2) for _ in range(3)]
    roots = [0.25 + 0.4j, -0.6 + 0.2j]
    jobs = [(w, m, f) for w in roots for m in range(1, 11) for f in functions]
    jobs = [jobs[i] for i in rng.permutation(len(jobs))] * 2
    serial = [_cold_power(basilica, f, m, w) for w, m, f in jobs]
    transfer_operator.clear_fiber_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda job: transfer_power(basilica, job[2], job[1], job[0]), jobs,
                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert serial == threaded


# ----------------------------------------------------------------------
# tables and closed forms of the transfer


def test_transfer_table_satisfies_formula(cheb):
    rng = np.random.default_rng(28)
    a = tf.random_polynomial(rng, 2)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    inf = np.zeros(12, dtype=bool)
    values = transfer_function(cheb, a).evaluate(pts, inf)
    for i, w in enumerate(pts):
        assert abs(values[i] - apply_transfer(cheb, a, w)) < 1e-10


def test_closed_form_transfer_polynomial_map(quad_map, cheb):
    rng = np.random.default_rng(29)
    cubic_symbol = tf.TestFunction.polynomial({(3, 0): 1.0, (0, 2): 2j,
                                               (0, 0): -1.0}, "z^3 + 2i zb^2 - 1")
    for rmap in (quad_map, cheb):
        for a in (tf.ONE, tf.Z, tf.Z * tf.Z, tf.ZBAR, cubic_symbol):
            closed_form = _closed_form_transfer(rmap, a)
            assert closed_form is not None
            for _ in range(15):
                w = complex(rng.normal(scale=2), rng.normal(scale=2))
                assert abs(closed_form(w) - apply_transfer(rmap, a, w)) < 1e-10


def test_no_closed_form_transfer_cases(quad_map):
    mixed = tf.TestFunction.polynomial({(1, 1): 1.0}, "|z|^2")
    assert _closed_form_transfer(quad_map, mixed) is None
    ratl = RationalMap([-1, 0, 1], [1, 0, 1])
    assert _closed_form_transfer(ratl, tf.Z) is None


def test_gathered_fibers_average_like_apply_transfer(cheb):
    # 2 is a fixed point, -2 the critical value with the double preimage 0
    points = np.array([2.0, -2.0, 0.3 + 0.1j, 5.0], dtype=complex)
    inf_mask = np.zeros(points.size, dtype=bool)
    fib = gather_fibers(cheb, points, inf_mask)
    assert list(np.diff(fib.offsets)) == [2, 1, 2, 2]
    rng = np.random.default_rng(41)
    a = tf.random_polynomial(rng, 2)
    via_fibers = fib.average(a.evaluate(fib.points, fib.inf_mask))
    for value, w in zip(via_fibers, sphere_points(points, inf_mask)):
        assert abs(value - apply_transfer(cheb, a, w)) < 1e-14
    siblings = gather_fibers(cheb, *evaluate_array(cheb, points, inf_mask))
    for j, z in enumerate(points):
        lo, hi = siblings.offsets[j], siblings.offsets[j + 1]
        assert np.min(np.abs(siblings.points[lo:hi] - z)) < 1e-12
