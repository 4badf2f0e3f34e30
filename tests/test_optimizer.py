import warnings

import numpy as np
import pytest
from scipy.optimize import line_search as scipy_line_search

import oada
from oada import adapt, optimizer
from oada.optimizer import FLOOR_K, NEAR_MISS, _line_search, _update_hess_inv, minimize
from oada.statevector import Ansatz, energy_and_gradient
from test_adapt import BEH2_FCI_PIPELINE_IDS, H6_ADAPT_30_IDS, H6_CIPSI_PIPELINE_IDS


def quadratic(center):
    def objective(theta):
        d = theta - center
        return float(d @ d), 2 * d
    return objective


def test_quadratic_converges_quickly():
    center = np.array([1.0, -2.0, 0.5, 3.0])
    result = minimize(quadratic(center), np.zeros(4), gtol=1e-10)
    assert result.converged
    assert np.max(np.abs(result.theta_opt - center)) < 1e-8
    assert result.n_iterations <= len(center) + 2


def test_h2_single_parameter_curve_reaches_fci(h2):
    # the lone double excitation is exact for this system
    double = [op for op in h2.pool if op.kind == "double"][0]
    ansatz = Ansatz(4, 2)
    ansatz.append(double.excitation, 0.0)

    def objective(theta):
        return energy_and_gradient(ansatz, h2.full, theta)

    result = minimize(objective, np.zeros(1), gtol=1e-10)
    assert abs(result.objective_value - h2.refs["REF_FCI"]) < 1e-8


def test_infinite_gtol_returns_start():
    result = minimize(quadratic(np.ones(3)), np.zeros(3), gtol=np.inf)
    assert result.converged
    assert np.array_equal(result.theta_opt, np.zeros(3))


def test_monotone_accepted_iterates():
    center = np.array([2.0, -1.0])
    values = []

    def objective(theta):
        d = theta - center
        value = float(d @ d + 0.3 * d[0] ** 4)
        return value, 2 * d + np.array([1.2 * d[0] ** 3, 0.0])

    def callback(xk):
        values.append(objective(xk)[0])

    minimize(objective, np.array([5.0, 5.0]), callback=callback)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_never_worse_than_start():
    # maxiter cripples the solve; result must still be <= f(theta0)
    def rosenbrock(theta):
        x, y = theta
        value = (1 - x) ** 2 + 100 * (y - x * x) ** 2
        grad = np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                         200 * (y - x * x)])
        return float(value), grad

    start = np.array([-1.2, 1.0])
    result = minimize(rosenbrock, start, max_iter=2)
    assert not result.converged
    assert result.objective_value <= rosenbrock(start)[0] + 1e-12


def test_converged_implies_gradient_below_gtol():
    result = minimize(quadratic(np.ones(2)), np.zeros(2), gtol=1e-9)
    assert result.converged
    assert result.gradient_norm <= 1e-9


def nan_everywhere(theta):
    return float("nan"), np.zeros_like(theta)


def nan_beyond_radius(theta):
    """A bowl centred at (1, 1) that is NaN beyond |theta| = 0.5, so its
    start is finite and the first line search steps into the NaN."""
    d = theta - 1.0
    value = float(d @ d) if np.linalg.norm(theta) <= 0.5 else float("nan")
    return value, 2 * d


@pytest.mark.parametrize("bad", [nan_everywhere, nan_beyond_radius])
def test_nan_objective_raises(bad):
    with pytest.raises(ValueError, match="nan"):
        minimize(bad, np.zeros(2))


def test_warm_start_never_worse(h4):
    # optimum of the (m-1)-parameter ansatz, new angle at zero: the
    # re-optimized m-parameter objective may not be worse
    pool = h4.pool
    ansatz = Ansatz(h4.n, h4.n_electrons)
    ansatz.append(pool[-1].excitation, 0.0)

    def objective(theta):
        return energy_and_gradient(ansatz, h4.full, theta)

    first = minimize(objective, np.zeros(1), gtol=1e-10)
    ansatz.thetas = list(first.theta_opt)
    ansatz.append(pool[0].excitation, 0.0)

    def objective2(theta):
        return energy_and_gradient(ansatz, h4.full, theta)

    second = minimize(objective2, list(first.theta_opt) + [0.0], gtol=1e-10)
    assert second.objective_value <= first.objective_value + 1e-12


def test_empty_parameter_vector():
    result = minimize(lambda t: (4.2, np.zeros(0)), np.zeros(0))
    assert result.converged and result.objective_value == 4.2


def anisotropic_quadratic(curvatures, center):
    curvatures, center = np.asarray(curvatures, float), np.asarray(center, float)

    def objective(theta):
        d = theta - center
        return float(0.5 * d @ (curvatures * d)), curvatures * d
    return objective


def test_returned_hess_inv_cuts_the_next_solve():
    objective = anisotropic_quadratic([1.0, 10.0, 100.0], [0.3, -0.2, 0.1])
    first = minimize(objective, np.zeros(3), gtol=1e-10)
    assert first.hess_inv.shape == (3, 3)
    start = np.array([1.0, 1.0, -1.0])
    cold = minimize(objective, start, gtol=1e-10)
    warm = minimize(objective, start, gtol=1e-10, hess_inv0=first.hess_inv)
    assert cold.converged and warm.converged
    assert warm.n_evaluations < cold.n_evaluations
    assert np.max(np.abs(warm.theta_opt - cold.theta_opt)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 30])
def test_the_in_place_inverse_update_is_the_allocating_one_bit_for_bit(n):
    rng = np.random.default_rng(n)
    work = np.empty((2, n, n))
    for _ in range(5):
        a = rng.normal(size=(n, n))
        hess_inv = a @ a.T + np.eye(n)
        step, change = rng.normal(size=n), rng.normal(size=n)
        curvature = change @ step
        expected = hess_inv.copy()
        rho, h_change = 1.0 / curvature, expected @ change
        column = step[:, None]
        cross = column * h_change
        expected += (rho * rho * (change @ h_change) + rho) * (column * step)
        expected -= rho * (cross + cross.T)
        _update_hess_inv(hess_inv, step, change, curvature, work)
        assert np.array_equal(hess_inv, expected)


def test_smaller_hess_inv0_is_bordered_with_one():
    # the exact inverse Hessian over the first two angles, bordered with 1
    # for a third angle of unit curvature, is the exact inverse Hessian:
    # one Newton step lands on the minimum
    objective = anisotropic_quadratic([4.0, 25.0, 1.0], [0.5, -0.4, 0.3])
    result = minimize(objective, np.zeros(3), gtol=1e-10,
                      hess_inv0=np.diag([0.25, 0.04]))
    assert result.converged
    assert result.n_iterations == 1
    with pytest.raises(ValueError, match="does not fit"):
        minimize(objective, np.zeros(2), hess_inv0=np.eye(3))


@pytest.mark.parametrize("hess_inv0", [-np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
def test_indefinite_hess_inv0_falls_back_to_identity(hess_inv0):
    objective = anisotropic_quadratic([1.0, 10.0], [1.0, -1.0])
    cold = minimize(objective, np.zeros(2), gtol=1e-10)
    result = minimize(objective, np.zeros(2), gtol=1e-10, hess_inv0=hess_inv0)
    assert result.converged
    assert result.n_evaluations == cold.n_evaluations
    assert np.array_equal(result.theta_opt, cold.theta_opt)


def test_empty_parameter_vector_with_hess_inv0():
    first = minimize(lambda t: (4.2, np.zeros(0)), np.zeros(0))
    result = minimize(lambda t: (4.2, np.zeros(0)), np.zeros(0), hess_inv0=first.hess_inv)
    assert result.converged and result.objective_value == 4.2
    assert result.hess_inv.shape == (0, 0)


BOWL_CURVATURES = np.array([0.1, 0.25, 0.63, 1.6, 4.0, 10.0])
BOWL_CENTER = np.array([1.0, 0.54, -0.42, -0.99, -0.65, 0.28])


def offset_bowl(theta):
    """A quadratic bowl sitting at -15, the scale of the BeH2 energy. Its
    value is summed through a large term that cancels, so, like a summed
    energy, it carries rounding errors of a few ulps that do not shrink
    with the step; the gradient is exact."""
    d = theta - BOWL_CENTER
    cancelling = 20.0 * np.sum(theta)
    value = ((-15.0 + cancelling) + np.sum(0.5 * BOWL_CURVATURES * d * d)) - cancelling
    return float(value), BOWL_CURVATURES * d


def test_floor_stop_ends_a_solve_whose_decreases_are_rounding():
    accepted = []
    result = minimize(offset_bowl, np.zeros(6), gtol=1e-8, callback=accepted.append)
    assert result.stop == "floor" and not result.converged
    assert 1e-8 < result.gradient_norm < NEAR_MISS * 1e-8
    # Without the floor stop this solve takes 49 evaluations: its last line
    # search fails on values that differ by rounding alone.
    assert result.n_evaluations < 49
    # the caller's callback still sees every accepted iterate, the last too
    assert len(accepted) == result.n_iterations
    assert np.array_equal(accepted[-1], result.theta_opt)


def steep_cusp(theta):
    """Minimum at BOWL_CENTER[:3] where max|g| falls only as |d|^0.2, so
    value differences reach the floor while the gradient is still large."""
    d = theta - BOWL_CENTER[:3]
    return float(1.0 + np.sum(np.abs(d) ** 1.2)), 1.2 * np.sign(d) * np.abs(d) ** 0.2


def test_floor_stop_needs_a_small_gradient():
    values, gnorms = [steep_cusp(np.zeros(3))[0]], []

    def callback(theta):
        value, grad = steep_cusp(theta)
        values.append(value)
        gnorms.append(np.max(np.abs(grad)))

    result = minimize(steep_cusp, np.zeros(3), gtol=1e-8, callback=callback)
    decreases = -np.diff(values)
    eps = np.finfo(float).eps
    # several accepted steps lowered the value by no more than the floor ...
    assert np.any(decreases <= FLOOR_K * eps * np.abs(values[1:]))
    # ... but max|g| never came near gtol, so the solve ran on
    assert min(gnorms) > NEAR_MISS * 1e-8
    assert result.stop == "line search" and not result.converged


def test_stop_names_gtol_and_max_iter():
    assert minimize(quadratic(np.ones(3)), np.zeros(3), gtol=1e-9).stop == "gtol"
    assert minimize(offset_bowl, np.zeros(6), max_iter=2).stop == "max_iter"


def test_a_failed_line_search_stops_without_a_warning():
    # the line search warns nothing when it fails; the stop reason reports it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize(steep_cusp, np.zeros(3), gtol=1e-8)
    assert result.stop == "line search"


def test_hess_inv0_is_checked_before_the_first_evaluation():
    def never(theta):
        raise AssertionError("evaluated")

    with pytest.raises(ValueError, match="does not fit"):
        minimize(never, np.zeros(2), hess_inv0=np.eye(3))


def test_a_warning_of_the_objective_still_reaches_the_caller():
    # no warnings filter stands between the objective and the caller
    def noisy(theta):
        warnings.warn("objective saw a tiny overlap", RuntimeWarning, stacklevel=2)
        return quadratic(np.ones(2))(theta)

    with pytest.warns(RuntimeWarning, match="tiny overlap") as caught:
        result = minimize(noisy, np.zeros(2), gtol=1e-9)
    assert result.stop == "gtol"
    # one warning per evaluation
    assert len(caught) == result.n_evaluations > 1


def test_a_nan_theta_is_evaluated_once_per_trial_point():
    # the search walks from a NaN angle: each trial point is evaluated once,
    # for value and gradient together, NaN or not
    calls = []

    def objective(theta):
        calls.append(theta.tobytes())
        d = np.nan_to_num(theta) - 1.0
        return float(d @ d), 2 * d

    result = minimize(objective, np.array([np.nan, 0.0]))
    assert result.n_evaluations == len(calls) > 1
    assert all(a != b for a, b in zip(calls, calls[1:]))


def test_a_known_start_is_not_evaluated_again():
    # the solve from a start the caller passes in is the solve that
    # evaluates it, one evaluation fewer; the result keeps the objective's
    # further items and gradient at the returned point
    center = np.array([1.0, -2.0, 0.5])
    seen = []

    def objective(theta):
        seen.append(theta.copy())
        value, grad = quadratic(center)(theta)
        return value, grad, theta.sum()

    theta0 = np.array([0.3, 0.0, -0.1])
    fresh = minimize(objective, theta0, gtol=1e-10)
    first = seen[0]
    seen.clear()
    carried = minimize(objective, theta0, gtol=1e-10, start=objective(theta0))
    assert np.array_equal(seen[0], first)  # the start call above
    assert not any(np.array_equal(x, theta0) for x in seen[1:])
    assert carried.n_evaluations == fresh.n_evaluations - 1 == len(seen) - 1
    assert np.array_equal(carried.theta_opt, fresh.theta_opt)
    assert carried.objective_value == fresh.objective_value
    assert np.array_equal(carried.gradient, quadratic(center)(carried.theta_opt)[1])
    assert carried.extra == (carried.theta_opt.sum(),)


def test_a_start_that_is_already_converged_returns_it():
    result = minimize(quadratic(np.zeros(2)), np.zeros(2),
                      start=(0.0, np.zeros(2), "kept"))
    assert result.n_evaluations == 0 and result.converged
    assert result.extra == ("kept",)


def test_workload_objective_evaluations_are_unchanged(h6, beh2_stretched, monkeypatch):
    # the benchmark's three solves, counted as its tracer counts them, and
    # the operators each selects. Each solve starts from the previous
    # optimum, which it no longer evaluates, except a pipeline's first
    # energy solve: 564, 599 and 193 evaluations before the carried start.
    counted = []
    solve = adapt.minimize

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        counted.append(result.n_evaluations)
        return result

    monkeypatch.setattr(adapt, "minimize", counting)
    _, h6_trace = oada.run_adapt(h6.ham, h6.pool, n_electrons=h6.n_electrons,
                                 eps=1e-8, max_ops=30)
    h6_run = oada.pipeline(h6.mol, h6.ham, h6.pool, "cipsi", 20, 30, cipsi_max_dets=50)
    beh2_run = oada.pipeline(beh2_stretched.mol, beh2_stretched.ham, beh2_stretched.pool,
                             "fci", 10, 20)
    assert [sum(counted[:30]), sum(counted[30:60]), sum(counted[60:])] == [534, 570, 174]
    assert len(counted) == 80
    assert [r.op_id for r in h6_trace.records] == H6_ADAPT_30_IDS
    for run, ids in ((h6_run, H6_CIPSI_PIPELINE_IDS), (beh2_run, BEH2_FCI_PIPELINE_IDS)):
        traces = (run.overlap_trace, run.adapt_trace)
        assert tuple([r.op_id for r in t.records] for t in traces) == ids
        assert [t.stop_reason for t in traces] == ["budget", "budget"]


def line(value, slope):
    """An objective of one angle from its value and slope functions."""
    def objective(theta):
        return float(value(theta[0])), np.array([float(slope(theta[0]))])
    return objective


def wavy(a, c, b, k):
    """a (x - c)^2 + b sin(k x): a bowl with ripples that defeat the
    interpolants of the zoom step."""
    return line(lambda x: a * (x - c) ** 2 + b * np.sin(k * x),
                lambda x: 2 * a * (x - c) + b * k * np.cos(k * x))


def kink(c):
    """|x - c|: its slope never falls below 1 in size, so no step meets the
    curvature condition and the zoom step runs out of trials."""
    return line(lambda x: abs(x - c), lambda x: np.sign(x - c))


def bowl_1d(c, a=1.0):
    return line(lambda x: a * (x - c) ** 2, lambda x: 2 * a * (x - c))


def zooms(events, ascending):
    return any(e[0] == "zoom" and (e[1] < e[2]) == ascending for e in events)


def margin(event):
    """The distance of an interpolant's step from the nearer end of its
    bracket, in bracket widths."""
    _, step, a_lo, a_hi = event
    if step is None:
        return np.inf
    return min(abs(step - a_lo), abs(a_hi - step)) / abs(a_hi - a_lo)


def keeps_upper_end(events):
    """A zoom trial that met the sufficient decrease with a slope still
    pointing to a_hi: the next bracket has a new a_lo and the same a_hi."""
    brackets = [e[-2:] for e in events if e[0] in ("zoom", "cubic")]
    return any(lo != next_lo and hi == next_hi
               for (lo, hi), (next_lo, next_hi) in zip(brackets, brackets[1:]))


def bisects(events):
    """A zoom trial at neither the cubic's nor the parabola's minimizer just
    proposed: the midpoint."""
    proposed = set()
    for event in events:
        if event[0] in ("cubic", "quad"):
            proposed.add(event[1])
        elif event[0] == "trial":
            if proposed and event[1] not in proposed:
                return True
            proposed = set()
    return False


# name: (objective, direction, old_value - value, a check that the
# search took the branch the name gives)
LINE_SEARCH_CASES = {
    "first trial accepted": (
        bowl_1d(1.0), 2.0, 1.0,
        lambda result, events: [e[0] for e in events] == ["trial"]),
    "first trial reset to 1 after an increase": (
        bowl_1d(1.0), 1.0, -1.0,
        lambda result, events: events == [("trial", 1.0)]),
    "step doubling": (
        bowl_1d(10.0), 1.0, 0.5,
        lambda result, events: [e[0] for e in events] == ["trial"] * 6
        and all(b[1] == 2 * a[1] for a, b in zip(events, events[1:]))),
    # the parabola's step lies just past its margin of 0.1 bracket widths
    "zoom after an Armijo failure": (
        bowl_1d(0.105), 1.0, 10.0,
        lambda result, events: events[1] == ("zoom", 0, 1.0)
        and events[3] == ("trial", events[2][1])),
    "zoom after the value stops falling": (
        line(lambda x: -min(x, 1.0), lambda x: -1.0 if x <= 1 else 0.0), 1.0, 10.0,
        lambda result, events: events[:3] == [("trial", 1.0), ("trial", 2.0),
                                              ("zoom", 1.0, 2.0)]),
    "zoom after a positive slope": (
        line(lambda x: -x + x ** 10 / 2, lambda x: -1 + 5 * x ** 9), 1.0, 10.0,
        lambda result, events: zooms(events, ascending=False)),
    "zoom keeps its upper end": (
        wavy(0.9, 2.0, 1.0, 3.4), 1.0, 1.0,
        lambda result, events: zooms(events, ascending=False) and keeps_upper_end(events)),
    # the margin is 0.2 bracket widths; a zoom that has swapped its ends
    # (a_lo > a_hi) rejects only steps outside the bracket
    "cubic steps either side of their margin": (
        wavy(1.4, 3.0, 0.4, 19.8), 1.0, 1.0,
        lambda result, events: {round(margin(e), 2) for e in events
                                if e[0] == "cubic" and e[2] < e[3]} >= {0.19, 0.2}),
    "cubic rejected, parabola rejected, bisection": (
        wavy(2.3, 1.1, 0.3, 16.4), 1.0, 1.0,
        lambda result, events: any(e[0] == "cubic" and e[1] is not None for e in events)
        and bisects(events)),
    "cubic without a cubic term": (
        bowl_1d(0.1, a=1.4), 1.0, 10.0,
        lambda result, events: any(e[:2] == ("cubic", None) for e in events)),
    "parabola through an underflowing bracket": (
        kink(3e-171), 1.0, 1e-170,
        lambda result, events: any(e[:2] == ("quad", None) for e in events)),
    "zoom runs out of trials": (
        kink(0.37), 1.0, 10.0,
        lambda result, events: result is None
        and [e[0] for e in events].count("trial") == 1 + optimizer._MAX_ZOOM + 1),
    "bracketing runs out of trials": (
        line(lambda x: -x, lambda x: -1.0), 1.0, 10.0,
        lambda result, events: result is None and "zoom" not in [e[0] for e in events]),
    "rounding makes the first step 0": (
        bowl_1d(1.0), 1.0, 0.0,
        lambda result, events: result is None and events == []),
}


@pytest.mark.parametrize("case", LINE_SEARCH_CASES)
def test_line_search_takes_scipys_steps(case, monkeypatch):
    objective, step, decrease, reaches = LINE_SEARCH_CASES[case]
    theta, direction = np.zeros(1), np.array([step])
    value, grad = objective(theta)
    old_value = value + decrease

    # scipy's search, each point evaluated once as the BFGS loop did when it
    # called scipy: a point equal to the one just evaluated is not evaluated
    # again, and theta itself was evaluated last
    scipy_points, latest = [], [theta.tolist(), value, grad]

    def memo(x):
        if x.tolist() != latest[0]:
            scipy_points.append(x.tobytes())
            latest[:] = [x.tolist(), *objective(x)]
        return latest[1:]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alpha, _, _, new_value, _, new_grad = scipy_line_search(
            lambda x: memo(x)[0], lambda x: memo(x)[1], theta, direction, grad, value,
            old_value, c1=1e-4, c2=0.9)

    events, points = [], []
    for name in ("_cubicmin", "_quadmin", "_zoom"):
        def recording(*args, _name=name, _original=getattr(optimizer, name)):
            if _name == "_zoom":
                events.append(("zoom", args[1], args[2]))
                return _original(*args)
            result = _original(*args)
            # an interpolant also records its bracket (a_lo, a_hi)
            events.append((_name[1:-3], result, *args[0:4:3]))
            return result
        monkeypatch.setattr(optimizer, name, recording)

    def evaluate(x):
        points.append(x.tobytes())
        events.append(("trial", float(x[0] / step)))
        return objective(x)

    result = _line_search(evaluate, theta, direction, value, grad, old_value)
    assert reaches(result, events), events
    assert points == scipy_points
    if new_grad is None:
        assert result is None
    else:
        our_alpha, our_value, our_grad = result
        assert np.float64(our_alpha).tobytes() == np.float64(alpha).tobytes()
        assert np.float64(our_value).tobytes() == np.float64(new_value).tobytes()
        assert our_grad.tobytes() == np.asarray(new_grad).tobytes()
