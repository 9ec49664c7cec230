"""Unit tests for the problem generators and reference oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from proxjacobi import problems
from proxjacobi.algebra import couple_apply
from proxjacobi.model import (Quadratic, load_problem, save_problem,
                              validate_problem, variable_splitting_transform)
from proxjacobi.problems import (acopf_block_layout, gen_acopf_toy,
                                 gen_coupled_qp, gen_multiperiod_dispatch,
                                 kkt_reference_solve, separable_lower_bound,
                                 toy_network, twin_generator_network)

from conftest import box_quadratic_min_enum, build_qp
from reference import equality_hessian


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
            A = sp.hstack([blk.coupling for blk in prob.blocks]).toarray()
            off = 0
            for blk, xt in zip(prob.blocks, prob.split(oracle.x_star)):
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
        for blk, xt in zip(prob.blocks, prob.split(oracle.x_star)):
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
        for blk, xt in zip(prob.blocks, prob.split(oracle.x_star)):
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


def lower_bound_problem(singular=None):
    """Blocks of sizes 2 and 3: unconstrained positive definite ones in two
    groups, one diagonal and boxed, one non-diagonal and boxed; block
    ``singular`` (if given) gets a singular non-diagonal Q."""
    import scipy.sparse as sp
    from proxjacobi.model import BlockSpec, ConstraintSet, Problem
    prob = problems.coupled_qp(5, 8, [2, 3, 2, 3, 2, 3, 2, 2], 3)
    blocks = list(prob.blocks)
    for t, lo, hi in ((1, -np.ones(3), np.ones(3)), (4, np.zeros(2), None)):
        blk = blocks[t]
        Q = blk.objective.Q
        if hi is None:
            Q, hi = sp.diags(Q.diagonal(), format="csr"), np.full(2, 2.0)
        blocks[t] = BlockSpec(
            n=blk.n, objective=Quadratic(Q, blk.objective.c, 0.25),
            set=ConstraintSet(lo, hi), coupling=blk.coupling)
    if singular is not None:
        blk = blocks[singular]
        blocks[singular] = BlockSpec(
            n=2, objective=Quadratic(sp.csr_matrix(np.ones((2, 2))),
                                     blk.objective.c),
            set=blk.set, coupling=blk.coupling)
    return Problem(m=prob.m, b=prob.b, blocks=blocks)


class TestLowerBound:
    def test_batched_groups_match_block_by_block(self):
        # the reference minimizes each block over its own box by
        # enumerating the active sets
        prob = lower_bound_problem()
        assert {len(g.blocks) for g in prob.quadratic_groups
                if g.kind == "exact"} == {2, 4}
        total = sum(box_quadratic_min_enum(
            blk.objective.Q.toarray(), blk.objective.c, blk.objective.c0,
            blk.set.lower, blk.set.upper) for blk in prob.blocks)
        assert separable_lower_bound(prob) == pytest.approx(total, rel=1e-12)

    def test_batched_refusal_names_the_first_block(self):
        # block 6 fails the batched test of its group; the refusal comes in
        # block order, with block 6's own message
        with pytest.raises(ValueError, match=r"block 6: .*nonconvex or "
                           r"singular non-diagonal objective"):
            separable_lower_bound(lower_bound_problem(singular=6))

    def test_nonlinear_group_is_refused(self):
        # a group of ACOPF periods with a convex non-diagonal objective has
        # no unconstrained minimum to offer: the bound is refused
        import scipy.sparse as sp
        from proxjacobi.model import BlockSpec, Problem
        prob = gen_acopf_toy(toy_network(nbus=3, T=3), 3)
        blocks = []
        for blk in prob.blocks:
            Q = sp.csr_matrix(np.eye(blk.n) + 0.1 * np.ones((blk.n, blk.n)))
            blocks.append(BlockSpec(n=blk.n, objective=Quadratic(
                Q, blk.objective.c), set=blk.set, coupling=blk.coupling))
        prob = Problem(m=prob.m, b=prob.b, blocks=blocks)
        grp, = prob.quadratic_groups
        assert grp.kind == "alm"
        with pytest.raises(ValueError, match=r"block 0: .*nonlinear"):
            separable_lower_bound(prob)

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

        def one_block(lo, hi):
            blk = BlockSpec(n=1, objective=f,
                            set=ConstraintSet(np.array([lo]), np.array([hi])),
                            coupling=sp.csr_matrix((0, 1)))
            return Problem(m=0, b=np.zeros(0), blocks=[blk])

        with pytest.raises(ValueError, match="unavailable"):
            separable_lower_bound(one_block(-np.inf, np.inf))
        # with a finite box the concave minimum sits at an endpoint
        assert separable_lower_bound(one_block(-2.0, 1.0)) == pytest.approx(
            -4.0)

    def test_diagonal_blocks_match_enumeration(self):
        # one group of diagonal blocks over boxes with every kind of
        # coordinate (convex, some unbounded below; linear; flat; concave):
        # each block's closed form is the minimum over its active sets
        from proxjacobi.model import (BlockSpec, ConstraintSet, Problem)
        rng = np.random.default_rng(3)
        blocks, total = [], 0.0
        for t in range(6):
            q = rng.choice([-1.0, 0.0, 1.5], 4)
            c = rng.choice([-1.0, 0.0, 2.0], 4) * rng.uniform(0.5, 1.5, 4)
            lo, hi = -rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
            lo[(q > 0) & (rng.uniform(size=4) < 0.5)] = -np.inf
            blocks.append(BlockSpec(
                n=4, objective=Quadratic(sp.diags(q, format="csr"), c, 0.1 * t),
                set=ConstraintSet(lo, hi), coupling=sp.csr_matrix((0, 4))))
            total += box_quadratic_min_enum(np.diag(q), c, 0.1 * t, lo, hi)
        prob = Problem(m=0, b=np.zeros(0), blocks=blocks)
        assert [g.kind for g in prob.quadratic_groups] == ["box"]
        assert separable_lower_bound(prob) == pytest.approx(total, rel=1e-12)

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


    @pytest.mark.parametrize("inert_box", [(0.5, 2.0), (-1.0, 1.0)])
    def test_inert_coordinate_matches_enumeration(self, inert_box):
        import scipy.sparse as sp
        from proxjacobi.model import (BlockSpec, ConstraintSet, Problem)
        # a convex non-diagonal n = 4 block over a box whose coordinate 1
        # has no cost: left free it makes the free Hessian singular, pinned
        # it leaves the QP a strict minimizer, whose value is the minimum
        # over the box
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 3))
        Q = np.zeros((4, 4))
        Q[np.ix_([0, 2, 3], [0, 2, 3])] = M.T @ M + 0.1 * np.eye(3)
        c = np.array([3.0, 0.0, -3.0, 0.5])
        lo = np.array([-1.0, inert_box[0], -1.0, -np.inf])
        hi = np.array([1.0, inert_box[1], np.inf, 0.5])
        blk = BlockSpec(n=4, objective=Quadratic(sp.csr_matrix(Q), c, 0.7),
                        set=ConstraintSet(lo, hi),
                        coupling=sp.csr_matrix((0, 4)))
        prob = Problem(m=0, b=np.zeros(0), blocks=[blk])
        assert [g.kind for g in prob.quadratic_groups] == ["box"]
        assert separable_lower_bound(prob) == pytest.approx(
            box_quadratic_min_enum(Q, c, 0.7, lo, hi), rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_dispatch_below_oracle_objective(self, seed):
        # a dispatch block's ramp slacks have no cost and no block equality;
        # pinned, they leave every block a certified minimizer.  seed None
        # is a 5-period dispatch at ramp 0.2, the seeds the benchmark's
        # dispatch instances
        if seed is None:
            prob = gen_multiperiod_dispatch(5, 3, 0.2)
        else:
            prob = dispatch_workload(seed)
        assert separable_lower_bound(prob) <= (
            kkt_reference_solve(prob).objective + 1e-9)


def dispatch_workload(seed):
    """The benchmark's dispatch instance of ``seed`` (perfbench/workloads.py):
    24 periods of 3 generators at ramp 0.1, the generator's sine load of
    amplitude 0.03 plus uniform noise in +-0.002 per period."""
    rng = np.random.default_rng([seed, 1])
    profile = problems.default_load_profile(24, amplitude=0.03)
    return gen_multiperiod_dispatch(
        24, 3, 0.1, profile=profile + rng.uniform(-2e-3, 2e-3, 24))


@pytest.mark.parametrize("kind", ["qp", "dispatch"])
def test_loaded_problem_reads_only_the_stacks(kind):
    # validation, the KKT oracle and the lower bound of a loaded problem
    # build no block's A_t or Q_t (nor an equality's Q), and give what they
    # give for the problem as built
    built = {"qp": lambda: problems.coupled_qp(2, 5, 3, 4),
             "dispatch": lambda: gen_multiperiod_dispatch(5, 3, 0.2)}[kind]()
    loaded = load_problem(save_problem(built))
    results = []
    for prob in (built, loaded):
        report = validate_problem(prob)
        oracle = kkt_reference_solve(prob)
        try:
            bound = separable_lower_bound(prob)
        except ValueError as exc:
            bound = str(exc)
        results.append((report.errors, report.warnings,
                        oracle.x_star.tolist(), oracle.lambda_star.tolist(),
                        oracle.objective, bound))
    for blk in loaded.blocks:
        assert "coupling" not in vars(blk)
        assert not any("Q" in vars(f) for f in [blk.objective,
                                                 *blk.set.equalities])
    assert results[0] == results[1]
    assert results[0][0] == []


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
            H = equality_hessian(cs, x, w)
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
        from proxjacobi import jacobi, tuner
        from proxjacobi.cli import default_start
        from proxjacobi.jacobi import RunConfig
        prob = gen_acopf_toy(toy_network(nbus=3, T=4), 4)
        xs = []
        for p in (prob, variable_splitting_transform(prob)):
            cfg = tuner.TunerConfig(eps=1e-3)
            init = tuner.make_initial_state(p, cfg, *default_start(p))
            state, _, reason = tuner.run_adaptive(
                p, cfg, init, RunConfig(record_timings=False))
            assert reason == jacobi.TERMINATION_FEASIBLE
            xs.append(p.split(state.x))
        err = max(float(np.max(np.abs(a - b[:a.size])))
                  for a, b in zip(*xs))
        assert err <= 1e-8

    def test_period_cap(self):
        # no cap on the periods: 30 build on a 30-period network, and the
        # network must carry every period asked for
        prob = gen_acopf_toy(toy_network(nbus=2, T=30), 30)
        assert prob.T == 30 and prob.m == 29
        with pytest.raises(ValueError):
            gen_acopf_toy(toy_network(nbus=2, T=3), 4)
        with pytest.raises(ValueError):
            gen_acopf_toy(toy_network(nbus=6, T=3), 3)  # 5-bus cap

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
