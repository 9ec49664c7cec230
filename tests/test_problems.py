"""Unit tests for the problem generators and reference oracles."""

import numpy as np
import pytest

from proxjacobi import problems
from proxjacobi.algebra import couple_apply
from proxjacobi.model import (Quadratic, save_problem, validate_problem,
                              variable_splitting_transform)
from proxjacobi.problems import (acopf_block_layout, gen_acopf_toy,
                                 gen_coupled_qp, gen_multiperiod_dispatch,
                                 kkt_reference_solve, separable_lower_bound,
                                 toy_network, twin_generator_network)

from conftest import box_quadratic_min_enum, build_qp


def finite_diff_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestCoupledQp:
    def test_deterministic(self):
        a, _ = gen_coupled_qp(7, 3, 2, 2)
        b, _ = gen_coupled_qp(7, 3, 2, 2)
        assert save_problem(a) == save_problem(b)

    def test_different_seeds_differ(self):
        a, _ = gen_coupled_qp(1, 3, 2, 2)
        b, _ = gen_coupled_qp(2, 3, 2, 2)
        assert save_problem(a) != save_problem(b)

    def test_oracle_kkt_conditions(self):
        for seed in range(5):
            prob, oracle = build_qp(seed)
            assert np.allclose(couple_apply(prob, oracle.x_star), prob.b,
                               atol=1e-9)
            A = prob.coupling.toarray()
            off = 0
            for blk, xt in zip(prob.blocks, oracle.x_star):
                g = blk.objective.gradient(xt) \
                    + A[:, off:off + blk.n].T @ oracle.lambda_star
                assert np.max(np.abs(g)) < 1e-9
                off += blk.n

    def test_m_exceeds_total(self):
        with pytest.raises(ValueError):
            gen_coupled_qp(0, 2, 2, 5)


class TestDispatch:
    def test_structure_and_oracle(self):
        prob = gen_multiperiod_dispatch(4, 3, 0.2)
        assert prob.T == 4
        assert prob.m == 3 * 3
        assert validate_problem(prob).ok
        oracle = kkt_reference_solve(prob)
        # ramping coupling and per-period demand balance both hold
        assert np.allclose(couple_apply(prob, oracle.x_star), prob.b,
                           atol=1e-9)
        for blk, xt in zip(prob.blocks, oracle.x_star):
            assert abs(blk.set.equalities[0].value(xt)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_multiperiod_dispatch(1, 2, 0.2)
        with pytest.raises(ValueError):
            gen_multiperiod_dispatch(3, 0, 0.2)
        with pytest.raises(ValueError):
            gen_multiperiod_dispatch(3, 2, 1.5)

    def test_profile_override(self):
        prof = np.full(3, 0.5)
        prob = gen_multiperiod_dispatch(3, 2, 0.2, profile=prof)
        demand = 0.5 * float(np.sum([1.0, 1.25]))
        assert prob.blocks[0].set.equalities[0].c0 == pytest.approx(-demand)


class TestKktOracle:
    def test_active_bound_certified(self):
        # demand at 99.9% of capacity pins generator 0 at pmax in every
        # period; the KKT conditions are checked here from scratch
        prob = gen_multiperiod_dispatch(3, 2, 0.2,
                                        profile=np.full(3, 0.999))
        oracle = kkt_reference_solve(prob)
        tol = 1e-9
        assert np.allclose(couple_apply(prob, oracle.x_star), prob.b,
                           rtol=0.0, atol=tol)
        pressed = 0
        for blk, xt in zip(prob.blocks, oracle.x_star):
            lo, hi = blk.set.lower, blk.set.upper
            balance = blk.set.equalities[0]
            assert np.all(xt >= lo) and np.all(xt <= hi)
            assert abs(balance.value(xt)) <= tol
            # stationarity: grad f + A'lam + mu c vanishes off the bounds
            r = blk.objective.gradient(xt) + \
                blk.coupling.T @ oracle.lambda_star
            at_lo, at_hi = xt == lo, xt == hi
            free = ~(at_lo | at_hi)
            mu = -(r[free] @ balance.c[free]) / (balance.c[free]
                                                 @ balance.c[free])
            box_mult = r + mu * balance.c
            assert np.all(np.abs(box_mult[free]) <= tol)
            # sign and complementarity: only bound coordinates carry a box
            # multiplier, pushing inward (>= 0 at lower, <= 0 at upper)
            assert np.all(box_mult[at_lo & ~at_hi] >= -tol)
            assert np.all(box_mult[at_hi & ~at_lo] <= tol)
            pressed += int(np.sum(at_hi & ~at_lo & (box_mult < -1e-3)))
        assert pressed == prob.T

    def test_residual_certificate(self):
        prob, oracle = build_qp(4)
        assert oracle.provenance == "kkt-linear-solve"


class TestLowerBound:
    def test_below_oracle_objective(self):
        for seed in (0, 3, 7):
            prob, oracle = build_qp(seed)
            assert separable_lower_bound(prob) <= oracle.objective + 1e-9

    def test_diagonal_box_closed_form(self):
        import scipy.sparse as sp
        from proxjacobi.model import (BlockSpec, ConstraintSet, Problem)
        # 0.5 * 2 x^2 - 2x over [0, 3] -> min at x = 1, value -1
        f = Quadratic(sp.csr_matrix(np.array([[2.0]])), np.array([-2.0]))
        blk = BlockSpec(n=1, objective=f,
                        set=ConstraintSet(np.zeros(1), np.full(1, 3.0)),
                        coupling=sp.csr_matrix((0, 1)))
        prob = Problem(m=0, b=np.zeros(0), blocks=[blk])
        assert separable_lower_bound(prob) == pytest.approx(-1.0)

    def test_concave_coordinate_needs_bounds(self):
        import scipy.sparse as sp
        from proxjacobi.model import (BlockSpec, ConstraintSet, Problem)
        f = Quadratic(sp.csr_matrix(np.array([[-2.0]])), np.zeros(1))
        blk = BlockSpec(n=1, objective=f,
                        set=ConstraintSet(np.array([-np.inf]),
                                          np.array([np.inf])),
                        coupling=sp.csr_matrix((0, 1)))
        prob = Problem(m=0, b=np.zeros(0), blocks=[blk])
        with pytest.raises(ValueError, match="unavailable"):
            separable_lower_bound(prob)
        # with a finite box the concave minimum sits at an endpoint
        blk.set = ConstraintSet(np.array([-2.0]), np.array([1.0]))
        assert separable_lower_bound(prob) == pytest.approx(-4.0)

    def test_boxed_block_takes_the_qp(self):
        import scipy.sparse as sp
        from proxjacobi.model import (BlockSpec, ConstraintSet, Problem)
        # a convex non-diagonal n = 4 block over a box, with two bounds
        # active at its minimum
        rng = np.random.default_rng(12)
        M = rng.standard_normal((4, 4))
        Q = M.T @ M + 0.1 * np.eye(4)
        c = np.array([3.0, -3.0, 0.5, 0.2])
        lo, hi = -np.ones(4), np.array([1.0, 1.0, np.inf, 0.5])
        blk = BlockSpec(n=4, objective=Quadratic(sp.csr_matrix(Q), c, 0.7),
                        set=ConstraintSet(lo, hi),
                        coupling=sp.csr_matrix((0, 4)))
        prob = Problem(m=0, b=np.zeros(0), blocks=[blk])
        assert separable_lower_bound(prob) == pytest.approx(
            box_quadratic_min_enum(Q, c, 0.7, lo, hi), rel=0.0, abs=1e-10)


def polar_point(blk, rng):
    """A point of an ACOPF block: V near 1, small angles, anything else
    uniform in [-1, 1]."""
    x = rng.uniform(-1.0, 1.0, blk.n)
    for eq in blk.set.equalities:
        if not isinstance(eq, Quadratic):
            v, th, nb = eq.v_offset, eq.theta_offset, eq.nbus
            x[v:v + nb] = 1.0 + 0.1 * rng.uniform(-1, 1, nb)
            x[th:th + nb] = 0.3 * rng.uniform(-1, 1, nb)
    return x


def acopf_blocks():
    """The first block of a 3-bus ACOPF toy and of its split form, whose
    block set mixes polar balances and linear rows."""
    prob = gen_acopf_toy(toy_network(nbus=3, T=2), 2)
    return [prob.blocks[0], variable_splitting_transform(prob).blocks[0]]


class TestAcopfBalance:
    def test_matches_complex_arithmetic(self):
        net = toy_network(nbus=3, T=2)
        lay = acopf_block_layout(net)
        blk = gen_acopf_toy(net, 2).blocks[0]
        Y = net.y_re.toarray() + 1j * net.y_im.toarray()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = polar_point(blk, rng)
            V = x[lay["v"]:lay["v"] + net.nbus]
            th = x[lay["theta"]:lay["theta"] + net.nbus]
            U = V * np.exp(1j * th)
            S = U * np.conj(Y @ U)
            expected = []
            for i in range(net.nbus):
                gens = [g for g in range(net.ngen) if net.gen_bus[g] == i]
                expected.append(sum(x[lay["p"] + g] for g in gens)
                                - net.pd[0, i] - S[i].real)
                expected.append(sum(x[lay["q"] + g] for g in gens)
                                - net.qd[0, i] - S[i].imag)
            assert np.allclose(blk.set.equality_values(x), expected,
                               rtol=0.0, atol=1e-12)

    def test_gradients(self):
        """Jacobian and weighted Hessian against finite differences, on an
        ACOPF block and on its split form."""
        rng = np.random.default_rng(1)
        for blk in acopf_blocks():
            cs = blk.set
            x = polar_point(blk, rng)
            w = rng.standard_normal(len(cs.equalities))
            J = cs.equality_jacobian(x)
            H = cs.equality_hessian(x, w)
            assert J.shape == (len(cs.equalities), blk.n)
            assert np.allclose(H, H.T, rtol=0.0, atol=1e-12)
            for i in range(len(cs.equalities)):
                fd = finite_diff_grad(lambda v: cs.equality_values(v)[i], x)
                assert np.allclose(J[i], fd, rtol=0.0, atol=1e-7)
            fd_H = np.column_stack([
                (cs.equality_jacobian(x + h) - cs.equality_jacobian(x - h)).T
                @ w / 2e-6 for h in 1e-6 * np.eye(blk.n)])
            assert np.allclose(H, fd_H, rtol=0.0, atol=1e-7)
        # the lifted rows A_t x_t - y_t = 0 of the split block stay linear
        lin = cs.equalities[-1]
        assert np.array_equal(J[-1, :lin.n], lin.c)


class TestAcopfToy:
    def test_structure(self):
        net = toy_network(nbus=2, T=3)
        prob = gen_acopf_toy(net, 3)
        lay = acopf_block_layout(net)
        assert prob.T == 3
        assert prob.m == net.ngen * 2
        assert all(blk.n == lay["n"] for blk in prob.blocks)
        assert validate_problem(prob).ok
        for blk in prob.blocks:
            # reference angle pinned through equal bounds
            assert blk.set.lower[lay["theta"]] == blk.set.upper[lay["theta"]]
            assert len(blk.set.equalities) == 2 * net.nbus

    def test_single_period_has_no_coupling(self):
        net = toy_network(nbus=2, T=1)
        prob = gen_acopf_toy(net, 1)
        assert prob.m == 0 and prob.b.size == 0

    def test_balance_equalities_close_at_consistent_point(self):
        """A hand-built power flow solution satisfies the builtin equality
        functions: injections computed from the complex balance equal the
        generator coordinates."""
        net = twin_generator_network()
        prob = gen_acopf_toy(net, 2)
        lay = acopf_block_layout(net)
        V = np.array([1.02, 1.01])
        th = np.array([0.0, -0.05])
        Y = net.y_re.toarray() + 1j * net.y_im.toarray()
        U = V * np.exp(1j * th)
        S = U * np.conj(Y @ U)
        x = np.zeros(lay["n"])
        x[lay["v"]:lay["v"] + 2] = V
        x[lay["theta"]:lay["theta"] + 2] = th
        for g, bus in enumerate(net.gen_bus):
            x[g] = S[bus].real + net.pd[0, bus]
            x[lay["q"] + g] = S[bus].imag + net.qd[0, bus]
        assert np.max(np.abs(prob.blocks[0].set.equality_values(x))) < 1e-10

    def test_split_solve_matches_unsplit(self):
        """The split form, whose blocks mix polar balances and linear
        rows, solves to the unsplit solution."""
        from proxjacobi import tuner
        from proxjacobi.cli import default_start
        from proxjacobi.jacobi import RunConfig
        prob = gen_acopf_toy(toy_network(nbus=3, T=4), 4)
        xs = []
        for p in (prob, variable_splitting_transform(prob)):
            cfg = tuner.TunerConfig(eps=1e-3)
            init = tuner.make_initial_state(p, cfg, *default_start(p))
            state, _, reason = tuner.run_adaptive(
                p, cfg, init, RunConfig(record_timings=False))
            assert reason == tuner.TERMINATION_FEASIBLE
            xs.append(state.x)
        err = max(float(np.max(np.abs(a - b[:a.size])))
                  for a, b in zip(*xs))
        assert err <= 1e-8

    def test_period_cap(self):
        net = toy_network(nbus=2, T=3)
        with pytest.raises(ValueError):
            gen_acopf_toy(net, 30)
        with pytest.raises(ValueError):
            gen_acopf_toy(net, 4)  # network only carries 3 load periods

    def test_cost_overrides(self):
        net = twin_generator_network()
        prob = gen_acopf_toy(net, 2, cost_a=[0.2, 0.25], cost_b=0.1)
        qdiag = prob.blocks[0].objective.Q.diagonal()
        assert qdiag[0] == pytest.approx(0.4)
        assert qdiag[1] == pytest.approx(0.5)
        assert np.allclose(prob.blocks[0].objective.c[:2], 0.1)


class TestNetworks:
    def test_toy_network_amplitude_cap(self):
        net = toy_network(nbus=2, T=6, load_amplitude=5.0, ramp=0.1)
        steps = np.abs(np.diff(net.pd[:, 1]))
        assert np.all(steps <= net.ramp[0] + 1e-12)

    def test_twin_generator_symmetry(self):
        net = twin_generator_network(T=4, load=0.7)
        assert net.ngen == 2 and net.gen_bus == [0, 1]
        assert net.nperiods == 4
        assert np.all(net.pd == 0.7)

    def test_neighbors(self):
        net = toy_network(nbus=3, T=2)
        nbrs, yre, yim = net.neighbors(1)
        assert nbrs == [0, 2]
        assert len(yre) == 2 and len(yim) == 2
