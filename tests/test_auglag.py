"""Unit tests for the augmented Lagrangian, Lyapunov function and residuals."""

import numpy as np
import pytest

from proxjacobi import auglag, jacobi, problems
from proxjacobi.algebra import couple_apply
from proxjacobi.auglag import (aug_lagrangian, eta_pair, lyapunov,
                               penalty_residuals, subproblem_gradients,
                               theorem1_bounds, theorem1_params)
from proxjacobi.jacobi import RunConfig
from proxjacobi.model import Params

from conftest import (at_point, block_objective, build_qp, default_start,
                      mixed_problem, state_at)
from reference import dagger_norm_sq, dual_residual

PARAMS = Params(rho=2.0, theta=3.0, tau_x=1.5, tau_z=0.5)


@pytest.fixture(scope="module")
def qp():
    return build_qp(6)[0]


def finite_diff_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def random_point(problem, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sum(problem.dims))
    z = rng.standard_normal(problem.m)
    lam = rng.standard_normal(problem.m)
    return x, z, lam


def test_aug_lagrangian_formula(qp):
    x, z, lam = random_point(qp, 0)
    viol = couple_apply(qp, x) + z - qp.b
    expected = sum(blk.objective.value(xt)
                   for blk, xt in zip(qp.blocks, qp.split(x)))
    expected += 0.5 * PARAMS.theta * z @ z + lam @ viol
    expected += 0.5 * PARAMS.rho * viol @ viol
    assert aug_lagrangian(qp, state_at(qp, x, z, lam),
                          PARAMS) == pytest.approx(expected)
    with pytest.raises(ValueError, match="length m"):
        jacobi.init_state(qp, x, np.zeros(qp.m + 1), lam, PARAMS)


def test_block_objective_tracks_aug_lagrangian():
    """On every block kind of the mixed problem (unbounded, boxed, linear
    equality, indefinite), moving only block t moves the block model by the
    change of the augmented Lagrangian plus the proximal term about the
    anchor x_t, and its gradient is the model's derivative."""
    prob = mixed_problem()
    x, z, lam = random_point(prob, 2)
    g = subproblem_gradients(prob, state_at(prob, x, z, lam), PARAMS.rho)
    L0 = aug_lagrangian(prob, state_at(prob, x, z, lam), PARAMS)
    rng = np.random.default_rng(3)
    xs = prob.split(x)
    for t, blk in enumerate(prob.blocks):
        obj = block_objective(prob, t, g, xs[t], PARAMS)
        other = xs[t] + rng.standard_normal(blk.n)
        x_other = x.copy()
        prob.split(x_other)[t][:] = other
        dL = aug_lagrangian(prob, state_at(prob, x_other, z, lam),
                            PARAMS) - L0
        dAx = blk.coupling @ (other - xs[t])
        prox = 0.5 * PARAMS.tau_x * float(dAx @ dAx)
        d_obj = at_point(obj.value, other) - at_point(obj.value, xs[t])
        assert d_obj == pytest.approx(dL + prox, rel=1e-9, abs=1e-9), t
        fd = finite_diff_grad(lambda v: at_point(obj.value, v), other)
        assert np.allclose(at_point(obj.gradient, other), fd, atol=1e-5), t


def test_lyapunov_adds_prox_terms(qp):
    x, z, lam = random_point(qp, 4)
    x_hat = x - 0.5
    z_hat = z - 0.25
    base = aug_lagrangian(qp, state_at(qp, x, z, lam), PARAMS)
    val = lyapunov(qp, state_at(qp, x, z, lam, x_hat, z_hat), PARAMS)
    extra = 0.25 * PARAMS.tau_z * float((z - z_hat) @ (z - z_hat))
    for blk, xt, xh in zip(qp.blocks, qp.split(x), qp.split(x_hat)):
        d = blk.coupling @ (xt - xh)
        extra += 0.25 * PARAMS.tau_x * float(d @ d)
    assert val == pytest.approx(base + extra)


class TestDualResidual:
    def test_unconstrained_is_gradient_norm(self, qp):
        x, _, lam = random_point(qp, 5)
        x0 = qp.split(x)[0]
        g = qp.blocks[0].objective.gradient(x0) \
            + qp.blocks[0].coupling.T @ lam
        assert dual_residual(qp, 0, x0, lam) == pytest.approx(
            np.linalg.norm(g))

    def test_zero_at_oracle(self):
        prob, oracle = build_qp(11)
        x_star = prob.split(oracle.x_star)
        for t in range(prob.T):
            assert dual_residual(prob, t, x_star[t],
                                 oracle.lambda_star) < 1e-9

    def test_box_normal_cone(self):
        # f(x) = (x - 2)^2 over [0, 1]: gradient points outward at x = 1
        import scipy.sparse as sp
        from proxjacobi.model import (BlockSpec, ConstraintSet, Problem,
                                      Quadratic)
        f = Quadratic(2.0 * sp.eye(1, format="csr"), np.array([-4.0]), 4.0)
        blk = BlockSpec(n=1, objective=f,
                        set=ConstraintSet(np.zeros(1), np.ones(1)),
                        coupling=sp.csr_matrix(np.ones((1, 1))))
        prob = Problem(m=1, b=np.zeros(1), blocks=[blk])
        lam = np.zeros(1)
        assert dual_residual(prob, 0, np.ones(1), lam) == 0.0
        # at the interior point 0.5 the raw gradient shows through
        assert dual_residual(prob, 0, np.array([0.5]), lam) == pytest.approx(3.0)

    def test_equality_multiplier_fit(self):
        prob = problems.gen_multiperiod_dispatch(3, 2, 0.2)
        oracle = problems.kkt_reference_solve(prob)
        x_star = prob.split(oracle.x_star)
        for t in range(prob.T):
            assert dual_residual(prob, t, x_star[t],
                                 oracle.lambda_star) < 1e-8

    def test_off_set_raises(self, qp):
        prob = problems.gen_multiperiod_dispatch(3, 2, 0.2)
        bad = np.full(prob.blocks[0].n, 50.0)
        with pytest.raises(ValueError, match="off the set"):
            dual_residual(prob, 0, bad, np.zeros(prob.m))


def test_penalty_residuals_formulas(qp):
    params = theorem1_params(0.3, qp.T)
    state = jacobi.init_state(qp, *default_start(qp), params)
    cfg = RunConfig(record_timings=False)
    with pytest.raises(ValueError):
        penalty_residuals(qp, state, params)
    for _ in range(3):
        jacobi.iterate(qp, state, params, cfg)
    snap = penalty_residuals(qp, state, params)
    p = couple_apply(qp, state.x) + state.z - qp.b
    assert np.allclose(snap.p, p, atol=1e-12)
    assert snap.pi == pytest.approx(
        np.linalg.norm(couple_apply(qp, state.x) - qp.b))
    assert np.allclose(snap.d_z, -params.tau_z * state.dz, atol=1e-12)
    dx = [xt - xp for xt, xp
          in zip(qp.split(state.x), qp.split(state.x_prev))]
    Adx = [blk.coupling @ d for blk, d in zip(qp.blocks, dx)]
    d_x = qp.split(snap.d_x)
    for t, blk in enumerate(qp.blocks):
        acc = sum(Adx[s] for s in range(qp.T) if s != t)
        d_t = params.rho * (blk.coupling.T @ (acc - state.dz)) \
            - params.tau_x * (blk.coupling.T @ Adx[t])
        assert np.allclose(d_x[t], d_t, atol=1e-9)
    assert snap.delta_max == max(snap.delta)


def test_eta_pair_and_theorem_params():
    p = theorem1_params(0.1, 4)
    assert p.theta == pytest.approx(100.0)
    assert p.rho == pytest.approx(6400.0)
    assert p.tau_x == pytest.approx(256.0 * 3 * 100.0)
    assert p.tau_z == pytest.approx(200.0)
    etas = eta_pair(p, 4)
    assert etas.feasible
    assert etas.eta_x == pytest.approx(p.tau_x / 4 - 1.5 * p.rho)
    assert etas.eta_z == pytest.approx(
        p.tau_z / 4 - 2 * (p.theta + p.tau_z) ** 2 / p.rho)
    # T = 1 edge: no cross-block interference, eta_x = tau_x / 4
    one = eta_pair(Params(rho=5.0, theta=1.0, tau_x=2.0, tau_z=1.0), 1)
    assert one.eta_x == pytest.approx(0.5)
    with pytest.raises(ValueError):
        theorem1_params(1.5, 2)
    with pytest.raises(ValueError):
        theorem1_params(0.1, 0)


def test_theorem1_bounds_requires_feasible_eta():
    bad = Params(rho=1.0, theta=100.0, tau_x=1.0, tau_z=1.0)
    with pytest.raises(ValueError):
        theorem1_bounds(1.0, 0.0, 0.5, 10, bad, [1.0], 2)


def test_dagger_norm_matches_explicit_r(qp):
    params = PARAMS
    state = jacobi.init_state(qp, *default_start(qp), params)
    cfg = RunConfig(record_timings=False)
    for _ in range(2):
        jacobi.iterate(qp, state, params, cfg)
    ref_x, ref_z, ref_lam = random_point(qp, 9)
    val = dagger_norm_sq(qp, state, ref_x, ref_z, ref_lam, params)
    T, m = qp.T, qp.m
    dev = np.concatenate([blk.coupling @ (xt - rx) for blk, xt, rx
                          in zip(qp.blocks, qp.split(state.x),
                                 qp.split(ref_x))])
    EEt = np.kron(np.ones((T, T)), np.eye(m))
    R = (params.rho + params.tau_x) * np.eye(T * m) - params.rho * EEt
    expected = float(dev @ (R @ dev))
    expected += (params.rho + params.tau_z) * float(
        (state.z - ref_z) @ (state.z - ref_z))
    expected += float((state.lam - ref_lam) @ (state.lam - ref_lam)) / params.rho
    expected += params.tau_z * float(state.dz @ state.dz)
    assert val == pytest.approx(expected, rel=1e-10)


def random_state(problem, seed):
    """An iterate at k = 1 with random x, x_prev, z, z_prev and lam."""
    x, z, lam = random_point(problem, seed)
    return state_at(problem, x, z, lam, *random_point(problem, seed + 1))


def dagger_by_blocks(problem, state, ref_x, ref_z, ref_lam, params):
    """dagger_norm_sq from one A_t(x_t - x*_t) per block:
    v'Rv = (rho + tau_x) sum_t ||v_t||^2 - rho ||sum_t v_t||^2."""
    dev = [blk.coupling @ (xt - rx) for blk, xt, rx
           in zip(problem.blocks, problem.split(state.x),
                  problem.split(ref_x))]
    total_dev = sum(dev)
    val = (params.rho + params.tau_x) * sum(float(d @ d) for d in dev)
    val -= params.rho * float(total_dev @ total_dev)
    val += (params.rho + params.tau_z) * float(
        (state.z - ref_z) @ (state.z - ref_z))
    val += float((state.lam - ref_lam) @ (state.lam - ref_lam)) / params.rho
    return val + params.tau_z * float(state.dz @ state.dz)


def fit_stack(kind, seed, k=8, r=3, n=6):
    """(J, G, X, lo, hi) of a random stack of k rows: ``qp`` (one J, C, for
    every row) or ``alm`` (a J per row).  Row 0 has every coordinate on a
    bound, row 1 a J_f with dependent rows, and row 2 a J_f of condition
    number 1e7; the other rows are well conditioned, every second one with
    its last coordinate on a bound."""
    rng = np.random.default_rng(seed)
    lo, hi = -np.ones((k, n)), np.ones((k, n))
    X = rng.uniform(-0.9, 0.9, (k, n))
    G = rng.standard_normal((k, n))
    X[0] = np.where(rng.random(n) < 0.5, lo[0], hi[0])
    X[3::2, -1] = lo[3::2, -1]
    U, _, Vt = np.linalg.svd(rng.standard_normal((r, r)))
    ill = U @ np.diag([1.0, 10 ** -3.5, 1e-7]) @ Vt
    if kind == "qp":
        # row 1 is free on coordinates 0 and 1 only, row 2 on 2 to 4 only
        J = rng.standard_normal((r, n))
        J[:, :2] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        J[:, 2:5] = ill
        X[1, 2:] = hi[1, 2:]
        X[2, [0, 1, 5]] = lo[2, [0, 1, 5]]
    else:
        J = rng.standard_normal((k, r, n))
        J[1, 2] = J[1, 0] - 0.5 * J[1, 1]
        J[2] = ill @ np.linalg.qr(rng.standard_normal((n, r)))[0].T
    return J, G, X, lo, hi


def fitted_delta(J, G, mu, X, lo, hi):
    """The norm of each row's normal-cone excess of G + J'mu."""
    R = G + (np.swapaxes(J, -1, -2) @ mu[..., None])[..., 0]
    return np.linalg.norm(auglag._normal_cone_excess(R, X, lo, hi, 1e-8),
                          axis=1)


@pytest.mark.parametrize("kind", ["qp", "alm"])
@pytest.mark.parametrize("seed", range(4))
def test_gram_multiplier_fit_matches_pinv(monkeypatch, kind, seed):
    # the Cholesky fit of the normal equations gives the delta of the
    # pseudo-inverse fit to 1e-12 relative.  The all-bound row gets mu = 0;
    # the rows with a dependent or an ill-conditioned J_f, and no others,
    # are fitted by the pseudo-inverse itself
    J, G, X, lo, hi = fit_stack(kind, seed)
    free = ~((X <= lo + 1e-8) | (X >= hi - 1e-8))
    Jf = np.where(free[:, None, :], J, 0.0)
    assert not free[0].any()
    assert np.linalg.matrix_rank(Jf[1]) == 2
    assert np.linalg.cond(Jf[2]) == pytest.approx(1e7, rel=1e-3)
    assert np.linalg.cond(Jf[3:]).max() < 1e2
    JfT = np.swapaxes(Jf, 1, 2)
    ref = (np.linalg.pinv(JfT) @ -np.where(free, G, 0.0)[..., None])[..., 0]
    pinv_rows = []
    real = np.linalg.pinv

    def spy(a):
        pinv_rows.append(len(a))
        return real(a)
    monkeypatch.setattr(np.linalg, "pinv", spy)
    mu = auglag.fit_multipliers(J, G, free)
    monkeypatch.undo()
    assert pinv_rows == [2]
    assert np.all(mu[0] == 0.0) and np.array_equal(mu[1:3], ref[1:3])
    assert np.allclose(fitted_delta(J, G, mu, X, lo, hi),
                       fitted_delta(J, G, ref, X, lo, hi),
                       rtol=1e-12, atol=0.0)


class TestBlockLoops:
    """The coupling quantities, each one product with the nonzero rows of
    the A_t and one reduction, against loops over the blocks."""

    def test_lyapunov(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        s = random_state(prob, 0)
        xs = prob.split(s.x)
        Ax = sum(blk.coupling @ xt for blk, xt in zip(prob.blocks, xs))
        viol = Ax + s.z - prob.b
        expected = sum(blk.objective.value(xt)
                       for blk, xt in zip(prob.blocks, xs))
        expected += 0.5 * PARAMS.theta * float(s.z @ s.z)
        expected += float(s.lam @ viol) + 0.5 * PARAMS.rho * float(viol @ viol)
        expected += 0.25 * PARAMS.tau_z * float(s.dz @ s.dz)
        for blk, xt, xh in zip(prob.blocks, xs, prob.split(s.x_prev)):
            d = blk.coupling @ (xt - xh)
            expected += 0.25 * PARAMS.tau_x * float(d @ d)
        assert lyapunov(prob, s, PARAMS) == pytest.approx(expected,
                                                          rel=1e-12)

    def test_penalty_dual_residuals(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        s = random_state(prob, 2)
        snap = penalty_residuals(prob, s, PARAMS)
        Adx = [blk.coupling @ (xt - xp) for blk, xt, xp
               in zip(prob.blocks, prob.split(s.x), prob.split(s.x_prev))]
        d_x = prob.split(snap.d_x)
        for t, blk in enumerate(prob.blocks):
            others = sum(Adx) - Adx[t]
            d_t = blk.coupling.T @ (PARAMS.rho * (others - s.dz)
                                    - PARAMS.tau_x * Adx[t])
            assert np.allclose(d_x[t], d_t, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(d_t),
                                                   initial=1.0)), t

    def test_dagger_norm(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        s = random_state(prob, 4)
        ref = random_point(prob, 6)
        assert dagger_norm_sq(prob, s, *ref, PARAMS) == pytest.approx(
            dagger_by_blocks(prob, s, *ref, PARAMS), rel=1e-12)

    def test_subproblem_gradients_bitwise(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        x, z, lam = random_point(prob, 8)
        Ax = np.zeros(prob.m)
        for blk, xt in zip(prob.blocks, prob.split(x)):
            Ax += blk.coupling @ xt
        v = lam + PARAMS.rho * (Ax + z - prob.b)
        expected = np.concatenate([
            blk.objective.gradient(xt) + blk.coupling.T @ v
            for blk, xt in zip(prob.blocks, prob.split(x))])
        assert np.array_equal(
            subproblem_gradients(prob, state_at(prob, x, z, lam), PARAMS.rho),
            expected)


def test_dagger_norm_has_no_size_cap():
    prob = problems.coupled_qp(0, 300, 2, 8)
    assert prob.T * prob.m > 2000
    s = random_state(prob, 1)
    ref = random_point(prob, 3)
    assert dagger_norm_sq(prob, s, *ref, PARAMS) == pytest.approx(
        dagger_by_blocks(prob, s, *ref, PARAMS), rel=1e-12)
