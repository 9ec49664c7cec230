"""Unit tests for the problem data model and its JSON schema."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from proxjacobi import model
from proxjacobi.model import (BlockSpec, ConstraintSet, Params, Problem,
                              Quadratic, SchemaError, csr_to_triplets,
                              load_problem, save_problem, triplets_to_csr,
                              validate_problem, variable_splitting_transform)

from conftest import build_qp


def finite_diff_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestQuadratic:
    def test_value_and_gradient(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        Q = M.T @ M
        c = rng.standard_normal(4)
        f = Quadratic(sp.csr_matrix(Q), c, 1.5)
        x = rng.standard_normal(4)
        assert f.value(x) == pytest.approx(0.5 * x @ Q @ x + c @ x + 1.5)
        fd = finite_diff_grad(f.value, x)
        assert np.allclose(f.gradient(x), fd, atol=1e-5)

    def test_symmetrization(self):
        Q = np.array([[1.0, 2.0], [0.0, 3.0]])
        f = Quadratic(sp.csr_matrix(Q), np.zeros(2))
        assert np.allclose(f.Q.toarray(), 0.5 * (Q + Q.T))

    def test_padded(self):
        f = Quadratic(sp.eye(2, format="csr"), np.array([1.0, -1.0]), 2.0)
        g = f.padded(3)
        x = np.array([0.5, 0.25, 9.0, -3.0, 7.0])
        assert g.value(x) == pytest.approx(f.value(x[:2]))
        grad = g.gradient(x)
        assert np.allclose(grad[2:], 0.0)
        assert np.allclose(grad[:2], f.gradient(x[:2]))


class TestTriplets:
    def test_round_trip_and_duplicates(self):
        trips = [[0, 1, 2.0], [1, 0, -1.0], [0, 1, 3.0]]
        mat = triplets_to_csr(trips, (2, 2))
        assert mat[0, 1] == 5.0
        back = csr_to_triplets(mat)
        assert back == [[0, 1, 5.0], [1, 0, -1.0]]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            triplets_to_csr([[2, 0, 1.0]], (2, 2))
        with pytest.raises(ValueError):
            triplets_to_csr([[0, -1, 1.0]], (2, 2))

    def test_empty(self):
        assert triplets_to_csr([], (3, 2)).nnz == 0
        assert csr_to_triplets(sp.csr_matrix((3, 2))) == []


class TestConstraintSet:
    def test_violation(self):
        cs = ConstraintSet(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        assert cs.violation(np.array([0.5, 0.0])) == 0.0
        assert cs.violation(np.array([1.5, 0.0])) == pytest.approx(0.5)
        assert cs.violation(np.array([-0.25, 0.0])) == pytest.approx(0.25)

    def test_equality_map_mixed_rows(self):
        # a circle x0^2 + x1^2 = 2 and the line x0 - x1 = 0 over R^3
        circle = Quadratic(2.0 * sp.eye(2, format="csr"), np.zeros(2), -2.0)
        line = Quadratic(sp.csr_matrix((3, 3)), np.array([1.0, -1.0, 0.0]))
        cs = ConstraintSet(np.full(3, -5.0), np.full(3, 5.0), [circle, line])
        x = np.array([1.5, -0.5, 2.0])
        assert cs.linear_rows is None
        assert np.allclose(cs.equality_values(x), [0.5, 2.0])
        assert np.allclose(cs.equality_jacobian(x),
                           [[3.0, -1.0, 0.0], [1.0, -1.0, 0.0]])
        assert np.allclose(cs.equality_hessian(x, [0.5, 7.0]),
                           np.diag([1.0, 1.0, 0.0]))
        C, d = ConstraintSet(np.zeros(3), np.ones(3), [line]).linear_rows
        assert np.array_equal(C, [line.c]) and np.array_equal(d, [0.0])

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ConstraintSet(np.array([1.0]), np.array([0.0]))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    def test_projection_feasible(self, vals):
        x = np.asarray(vals)
        lo = np.full(x.size, -1.0)
        hi = np.full(x.size, 1.0)
        cs = ConstraintSet(lo, hi)
        from proxjacobi.subsolver import project_box
        assert cs.violation(project_box(x, lo, hi)) == 0.0


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(rho=0.0, theta=1.0, tau_x=1.0, tau_z=1.0)
        with pytest.raises(ValueError):
            Params(rho=1.0, theta=1.0, tau_x=-1.0, tau_z=1.0)
        p = Params(rho=1.0, theta=1.0, tau_x=0.0, tau_z=0.0)
        assert p.tau_x == 0.0


class TestSerialization:
    def test_round_trip_byte_stable(self):
        prob, _ = build_qp(3)
        text = save_problem(prob)
        again = save_problem(load_problem(text))
        assert text == again

    def test_round_trip_with_equalities_and_bounds(self):
        from proxjacobi import problems
        prob = problems.gen_multiperiod_dispatch(3, 2, 0.2)
        text = save_problem(prob)
        prob2 = load_problem(text)
        assert save_problem(prob2) == text
        assert validate_problem(prob2).ok

    @pytest.mark.parametrize("split", [False, True])
    def test_round_trip_acopf_byte_stable(self, split):
        from proxjacobi import problems
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=4), 4)
        if split:
            prob = variable_splitting_transform(prob)
        text = save_problem(prob)
        again = load_problem(text)
        assert save_problem(again) == text
        assert validate_problem(again).ok
        assert again.blocks[0].set.equalities[0].to_json() == \
            prob.blocks[0].set.equalities[0].to_json()

    def test_builtin_objective_refused(self):
        from proxjacobi import problems
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=2, T=1), 1)
        doc = json.loads(save_problem(prob))
        doc["blocks"][0]["objective"] = doc["blocks"][0]["equalities"][0]
        with pytest.raises(SchemaError, match=r"blocks\[0\]\.objective.*quadratic"):
            load_problem(json.dumps(doc))

    def test_infinite_bounds_survive(self):
        prob, _ = build_qp(0)
        prob2 = load_problem(save_problem(prob))
        assert np.all(np.isinf(prob2.blocks[0].set.lower))

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            load_problem("{not json")

    def test_missing_field_path(self):
        with pytest.raises(SchemaError, match="blocks\\[0\\].A"):
            load_problem(
                '{"m": 1, "b": [0.0], "blocks": [{"n": 1, '
                '"objective": {"type": "quadratic", "Q": [], "c": [0.0]}, '
                '"bounds": {"lower": [0.0], "upper": [1.0]}}]}')

    def test_unknown_function_type(self):
        with pytest.raises(SchemaError, match="type"):
            model.function_from_json({"type": "cubic"})


class TestValidation:
    def test_good_problem(self):
        prob, _ = build_qp(1)
        assert validate_problem(prob).ok

    def test_rank_deficient_coupling(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        blk = BlockSpec(
            n=2, objective=Quadratic(sp.eye(2, format="csr"), np.zeros(2)),
            set=ConstraintSet(np.full(2, -np.inf), np.full(2, np.inf)),
            coupling=A)
        prob = Problem(m=2, b=np.zeros(2), blocks=[blk])
        rep = validate_problem(prob)
        assert not rep.ok
        assert any("rank" in e for e in rep.errors)

    def test_shape_mismatches(self):
        prob, _ = build_qp(1)
        bad = Problem(m=prob.m, b=np.zeros(prob.m + 1), blocks=prob.blocks)
        assert not validate_problem(bad).ok

    def test_unbounded_equality_warns(self):
        eq = Quadratic(sp.csr_matrix((1, 1)), np.ones(1), -1.0)
        blk = BlockSpec(
            n=1, objective=Quadratic(sp.eye(1, format="csr"), np.zeros(1)),
            set=ConstraintSet(np.array([-np.inf]), np.array([np.inf]), [eq]),
            coupling=sp.csr_matrix(np.ones((1, 1))))
        rep = validate_problem(Problem(m=1, b=np.zeros(1), blocks=[blk]))
        assert rep.ok and rep.warnings


class TestSplitTransform:
    def test_lifted_problem_is_equivalent(self):
        prob, _ = build_qp(2)
        lifted = variable_splitting_transform(prob)
        assert validate_problem(lifted).ok
        assert lifted.T == prob.T
        # any x extends feasibly via y_t = A_t x_t
        rng = np.random.default_rng(7)
        for blk, lblk in zip(prob.blocks, lifted.blocks):
            x = rng.standard_normal(blk.n)
            y = blk.coupling @ x
            xy = np.concatenate([x, y])
            assert lblk.set.violation(xy) < 1e-12
            assert lblk.objective.value(xy) == pytest.approx(
                blk.objective.value(x))
            assert np.allclose(lblk.coupling @ xy, y)
