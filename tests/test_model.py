"""Unit tests for the problem data model and its JSON schema."""

import gc
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from proxjacobi import cli, model, problems
from proxjacobi.model import (RANK_DROP_TOL, BlockSpec, ConstraintSet,
                              Params, Problem, Quadratic, SchemaError,
                              coupling_rank, csr_to_triplets, load_problem,
                              save_problem, triplets_to_csr, validate_problem,
                              variable_splitting_transform)

from conftest import build_qp, mixed_problem, replace_equalities
from reference import equality_hessian


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

    def test_symmetry_test_is_exact(self):
        # symmetric input is kept bit for bit and an asymmetry of one ulp
        # is found; input with unsorted indices reads as asymmetric, and
        # symmetrizing it leaves a symmetric matrix's values as they are
        rng = np.random.default_rng(5)
        for trial in range(30):
            D = rng.standard_normal((5, 5)) * (rng.uniform(size=(5, 5)) < 0.5)
            D = D + D.T + np.eye(5)
            if trial % 3 == 1:
                i, j = rng.choice(5, 2, replace=False)
                D[i, j] = np.nextafter(D[i, j], np.inf)
            Q = sp.csr_matrix(D)
            if trial % 3 == 2:
                for r in range(5):
                    row = slice(Q.indptr[r], Q.indptr[r + 1])
                    Q.indices[row] = Q.indices[row][::-1].copy()
                    Q.data[row] = Q.data[row][::-1].copy()
                Q.has_sorted_indices = False
            assert model._is_symmetric(Q) == (trial % 3 == 0)
            f = Quadratic(Q, np.zeros(5))
            assert np.array_equal(f.Q.toarray(), 0.5 * (D + D.T))
            if trial % 3 != 1:
                assert np.array_equal(f.Q.toarray(), D)

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


def random_triplets(rng, shape, count):
    """``count`` random triplets in ``shape``, a few repeated and a few
    explicit zeros among them."""
    trips = [[int(rng.integers(shape[0])), int(rng.integers(shape[1])),
              float(rng.standard_normal())] for _ in range(count)]
    if count:
        trips += [list(trips[0]), [trips[-1][0], trips[-1][1], 0.0]]
    return trips


POLAR_ROW = {"type": "builtin", "name": "acopf_re", "payload": {
    "bus": 0, "nbus": 1, "load": 0.5, "gen_coords": [0], "v_offset": 0,
    "theta_offset": 1, "y_diag_re": 1.0, "y_diag_im": -2.0, "neighbors": [],
    "y_re": [], "y_im": []}}


def random_symmetric_triplets(rng, n):
    """Triplets of a random sparse symmetric n x n matrix, with a diagonal
    entry in two halves and a pair of explicit zeros."""
    D = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.6)
    D = D + D.T
    Q = [[int(i), int(j), float(D[i, j])] for i, j in zip(*np.nonzero(D))]
    return Q + [[n - 1, n - 1, 0.5], [n - 1, n - 1, 0.5], [0, n - 1, 0.0],
                [n - 1, 0, 0.0]]


def random_equalities(rng, n, asymmetric):
    """Equality documents for a block of size n: a linear row (empty Q), a
    row with a symmetric Q, a builtin polar row when n >= 2 and, when
    ``asymmetric``, a row with an asymmetric Q and one whose Q is a lone
    explicit zero (which symmetrizing drops, leaving a linear row)."""
    row = lambda Q: {"type": "quadratic", "Q": Q,
                     "c": rng.standard_normal(n).tolist(),
                     "c0": float(rng.standard_normal())}
    eqs = [row([]), row(random_symmetric_triplets(rng, n))]
    if n >= 2:
        eqs.append(POLAR_ROW)
        if asymmetric:
            eqs += [row([[0, 1, 0.75], [1, 1, 1.0]]), row([[1, 0, 0.0]])]
    return eqs


def random_document(seed):
    """A problem document with blocks of mixed sizes, repeated triplets and
    explicit zeros, some empty Q and A, and for even seeds one asymmetric
    middle block.  The middle block and every other block have equalities,
    among them quadratic rows, the middle block's with an asymmetric Q when
    seed % 4 < 2."""
    rng = np.random.default_rng(seed)
    eq_rng = np.random.default_rng([seed, 1])
    T, m = int(rng.integers(3, 7)), int(rng.integers(1, 5))
    blocks = []
    for t in range(T):
        n = int(rng.integers(2 if t == T // 2 else 1, 6))
        Q = random_symmetric_triplets(rng, n)
        if t == T // 2 and seed % 2 == 0:
            Q += [[0, n - 1, 0.25]]
        elif t % 3 == 1:
            Q = []
        A = [] if t % 4 == 2 else random_triplets(
            rng, (m, n), int(rng.integers(1, 2 * m * n)))
        blocks.append({
            "n": n,
            "objective": {"type": "quadratic", "Q": Q,
                          "c": rng.standard_normal(n).tolist(), "c0": 0.5},
            "bounds": {"lower": ["-inf"] * n, "upper": ["inf"] * n},
            "equalities": random_equalities(
                eq_rng, n, t == T // 2 and seed % 4 < 2)
            if t % 2 == 0 or t == T // 2 else [],
            "A": A,
        })
    return {"m": m, "b": rng.standard_normal(m).tolist(), "blocks": blocks}


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestLoader:
    """``load_problem`` converts every objective Q_t together, every
    quadratic equality's Q together and every A_t together, and checks the
    values of each stack at once; each block's Q_t and A_t, and each
    equality's Q, is a view on its stack until it is first read.  The
    result must be what converting them one by one gives."""

    @pytest.mark.parametrize("seed", range(8))
    def test_stacks_match_per_block_conversion(self, seed):
        doc = random_document(seed)
        prob = load_problem(json.dumps(doc))
        for bdoc, blk in zip(doc["blocks"], prob.blocks):
            n = bdoc["n"]
            wants = [model.function_from_json(e) for e in bdoc["equalities"]]
            # the equality map stacks the Q of the rows with Q != 0 only
            emap = blk.set.equality_map
            assert emap.quadratic_rows.tolist() == [
                j for j, e in enumerate(wants)
                if isinstance(e, Quadratic) and e.Q.nnz]
            for Q_j, j in zip(emap.Q, emap.quadratic_rows):
                assert np.array_equal(Q_j, wants[j].Q.toarray())
            assert len(blk.set.equalities) == len(wants)
            for eq, want in zip(blk.set.equalities, wants):
                assert type(eq) is type(want)
                if isinstance(want, Quadratic):
                    assert_same_csr(eq.Q, want.Q)
                    assert np.array_equal(eq.c, want.c)
                    assert (eq.c0, eq.n) == (want.c0, want.n)
                else:
                    assert eq.to_json() == want.to_json()
            want = Quadratic(triplets_to_csr(bdoc["objective"]["Q"], (n, n)),
                             bdoc["objective"]["c"]).Q
            assert_same_csr(blk.objective.Q, want)
            assert_same_csr(blk.coupling,
                            triplets_to_csr(bdoc["A"], (prob.m, n)))
        assert ("objective_Q" in vars(prob)) == (seed % 2 == 1)
        # the stacks the loader keeps are the ones the blocks give
        again = Problem(m=prob.m, b=prob.b, blocks=prob.blocks)
        K, KT, row, block = prob.coupling_rows
        assert_same_csr(K, again.coupling_rows.K)
        assert_same_csr(KT, again.coupling_rows.KT)
        assert np.array_equal(row, again.coupling_rows.row)
        assert np.array_equal(block, again.coupling_rows.block)
        assert_same_csr(prob.objective_Q, again.objective_Q)
        assert np.array_equal(model._coupling_entries(prob).toarray(),
                              sp.hstack([blk.coupling for blk in prob.blocks],
                                        format="csr").toarray())
        for name in ("objective_c", "lower", "upper"):
            assert np.array_equal(getattr(prob, name), getattr(again, name))
        text = save_problem(prob)
        assert save_problem(load_problem(text)) == text

    def test_symmetric_stack_is_kept(self):
        prob, _ = build_qp(4)
        again = load_problem(save_problem(prob))
        assert "objective_Q" in vars(again)
        for blk in again.blocks:
            assert model._is_symmetric(blk.objective.Q)

    @pytest.mark.parametrize("kind, path, message", [
        ("ragged", "blocks[2].objective.Q",
         "setting an array element with a sequence"),
        ("row", "blocks[2].A", "triplet row index out of range"),
        ("col", "blocks[2].objective.Q", "triplet col index out of range"),
        ("Q not a list", "blocks[2].objective.Q",
         "could not convert string to float: 'oops'"),
        ("pairs", "blocks[2].objective.Q",
         "triplets must be a list of [row, col, value]"),
        ("bounds length", "blocks[2].bounds.upper", "length 1 != n=2"),
        ("lower > upper", "blocks[2].bounds",
         "lower bound exceeds upper bound"),
        # a block's matrices are met before its bound order, and an
        # earlier block before a later one
        ("A and order", "blocks[2].A", "triplet col index out of range"),
        ("two blocks", "blocks[1].A", "triplet col index out of range"),
        ("number", "blocks[2].objective.Q",
         "object of type 'int' has no len()"),
        ("equality ragged", "blocks[2].equalities[1].Q",
         "setting an array element with a sequence"),
        ("equality col", "blocks[2].equalities[1].Q",
         "triplet col index out of range"),
        # an earlier block's A is met before a later block's equalities,
        # and a block's equalities before its bound order
        ("A then equality", "blocks[1].A", "triplet col index out of range"),
        ("equality and order", "blocks[2].equalities[1].Q",
         "triplet col index out of range"),
        ("nan A", "blocks[2].A", "value is not finite"),
        ("inf Q", "blocks[2].objective.Q", "value is not finite"),
        ("duplicates overflow", "blocks[2].objective.Q",
         "value is not finite"),
        ("nan c", "blocks[2].objective.c", "value is not finite"),
        ("nan c0", "blocks[2].objective.c0", "value is not finite"),
        ("nan lower", "blocks[2].bounds.lower", "bound is NaN"),
        ("NaN upper", "blocks[2].bounds.upper", "bound is NaN"),
        ("inf equality Q", "blocks[2].equalities[1].Q",
         "value is not finite"),
        ("nan equality c", "blocks[2].equalities[0].c",
         "value is not finite"),
        ("nan b", "b", "value is not finite"),
        # a value that is not finite takes its place in document order
        # among the other faults
        ("nan then length", "blocks[1].objective.c", "value is not finite"),
        ("length then nan", "blocks[1].bounds.upper", "length 1 != n=2"),
        ("nan A and order", "blocks[2].A", "value is not finite"),
    ])
    def test_first_fault_is_named(self, kind, path, message):
        blocks = [{"n": 2,
                   "objective": {"type": "quadratic",
                                 "Q": [[0, 0, 2.0], [1, 1, 1.0]],
                                 "c": [0.5, -1.0]},
                   "bounds": {"lower": [-1.0, "-inf"], "upper": [1.0, "inf"]},
                   "equalities": [
                       {"type": "quadratic", "Q": [], "c": [1.0, 1.0],
                        "c0": -1.0},
                       {"type": "quadratic", "Q": [[0, 1, 0.5], [1, 0, 0.5]],
                        "c": [0.0, 1.0]}],
                   "A": [[0, 0, 1.0], [1, 1, 1.0]]} for _ in range(4)]
        b = [0.0, 0.0]
        blk = blocks[2]
        eq = blk["equalities"][1]
        if kind == "ragged":
            blk["objective"]["Q"] = [[0, 0, 1.0], [1, 0]]
        elif kind == "row":
            blk["A"] = [[0, 0, 1.0], [2, 1, 1.0]]
        elif kind == "col":
            blk["objective"]["Q"] = [[0, 2, 1.0]]
        elif kind == "Q not a list":
            blk["objective"]["Q"] = "oops"
        elif kind == "pairs":
            blk["objective"]["Q"] = [[0, 0]]
        elif kind == "bounds length":
            blk["bounds"]["upper"] = [1.0]
        elif kind == "lower > upper":
            blk["bounds"]["lower"] = [2.0, 0.0]
        elif kind == "A and order":
            blk["A"] = [[0, 5, 1.0]]
            blk["bounds"]["lower"] = [2.0, 0.0]
        elif kind == "two blocks":
            blocks[1]["A"] = [[0, 5, 1.0]]
            blk["bounds"]["upper"] = [1.0]
        elif kind == "number":
            blk["objective"]["Q"] = 5
        elif kind == "equality ragged":
            eq["Q"] = [[0, 0, 1.0], [1, 0]]
        elif kind == "equality col":
            eq["Q"] = [[0, 2, 1.0]]
        elif kind == "A then equality":
            blocks[1]["A"] = [[0, 5, 1.0]]
            eq["Q"] = [[0, 2, 1.0]]
        elif kind == "equality and order":
            eq["Q"] = [[0, 2, 1.0]]
            blk["bounds"]["lower"] = [2.0, 0.0]
        elif kind == "nan A":
            blk["A"][1][2] = float("nan")
        elif kind == "inf Q":
            blk["objective"]["Q"][0][2] = float("inf")
        elif kind == "duplicates overflow":
            blk["objective"]["Q"] += [[0, 0, 1e308], [0, 0, 1e308]]
        elif kind == "nan c":
            blk["objective"]["c"][1] = float("nan")
        elif kind == "nan c0":
            blk["objective"]["c0"] = "nan"
        elif kind == "nan lower":
            blk["bounds"]["lower"][0] = "nan"
        elif kind == "NaN upper":
            blk["bounds"]["upper"][1] = float("nan")
        elif kind == "inf equality Q":
            eq["Q"][0][2] = float("-inf")
        elif kind == "nan equality c":
            blk["equalities"][0]["c"][0] = float("nan")
        elif kind == "nan b":
            b[1] = float("nan")
        elif kind == "nan then length":
            blocks[1]["objective"]["c"][0] = float("nan")
            blk["bounds"]["upper"] = [1.0]
        elif kind == "length then nan":
            blocks[1]["bounds"]["upper"] = [1.0]
            blk["A"][0][2] = float("nan")
        elif kind == "nan A and order":
            blk["A"][0][2] = float("nan")
            blk["bounds"]["lower"] = [2.0, 0.0]
        text = json.dumps({"m": 2, "b": b, "blocks": blocks})
        with pytest.raises(SchemaError) as err:
            load_problem(text)
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: {message}")

    def test_constructions_do_not_grow_with_T(self, monkeypatch):
        # no sparse matrix is built per block or per equality while loading
        texts = {(kind, T): save_problem(make(T)) for T in (4, 32)
                 for kind, make in [
                     ("qp", lambda T: problems.coupled_qp(0, T, 3, 2)),
                     ("dispatch", lambda T: problems.gen_multiperiod_dispatch(
                         T, 3, 0.3))]}
        made = []
        for cls in (sp.csr_matrix, sp.coo_matrix):
            def spy(self, *args, _init=cls.__init__, **kwargs):
                made.append(type(self))
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", spy)
        counts = {}
        for key, text in texts.items():
            made.clear()
            load_problem(text)
            counts[key] = len(made)
        assert counts[("qp", 4)] == counts[("qp", 32)] > 0
        assert counts[("dispatch", 4)] == counts[("dispatch", 32)] > 0

    @pytest.mark.parametrize("kind", ["qp", "dispatch", "acopf"])
    def test_round_builds_no_block_view(self, kind, tmp_path, monkeypatch):
        # validate, solve and trace-check read no block's Q_t or A_t and no
        # equality's Q; reading them afterwards gives the same matrices
        prob = {"qp": lambda: problems.coupled_qp(1, 6, 3, 2),
                "dispatch": lambda: problems.gen_multiperiod_dispatch(
                    6, 3, 0.3),
                "acopf": lambda: problems.gen_acopf_toy(
                    problems.toy_network(nbus=2, T=3), 3)}[kind]()
        text = save_problem(prob)
        path, trace = tmp_path / "p.json", tmp_path / "t.csv"
        path.write_text(text)
        loaded = []
        load = cli._load_problem_file
        monkeypatch.setattr(cli, "_load_problem_file",
                            lambda p: loaded.append(load(p)) or loaded[-1])
        flags = (["--fixed-params", "--max-iters", "4"] if kind == "qp"
                 else ["--max-iters", "6"])
        assert cli.main(["solve", str(path), "--trace", str(trace),
                         "--no-timings", *flags]) in (cli.EXIT_OK,
                                                      cli.EXIT_ITERATION_CAP)
        assert cli.main(["trace-check", str(trace), str(path)]) == cli.EXIT_OK
        assert len(loaded) == 2
        for prob in loaded:
            for blk in prob.blocks:
                assert "coupling" not in vars(blk)
                quadratics = [blk.objective, *(
                    eq for eq in blk.set.equalities
                    if isinstance(eq, Quadratic))]
                assert not any("Q" in vars(f) for f in quadratics)
            assert save_problem(prob) == text
            assert all("coupling" in vars(blk) for blk in prob.blocks)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, enabled):
        prob, _ = build_qp(1)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            load_problem(save_problem(prob))
            assert gc.isenabled() == enabled
            with pytest.raises(SchemaError):
                load_problem("{not json")
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


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
        assert np.allclose(equality_hessian(cs, x, [0.5, 7.0]),
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["rho", "theta", "tau_x", "tau_z"])
    def test_nonfinite_rejected(self, name, value):
        values = dict(rho=1.0, theta=1.0, tau_x=1.0, tau_z=1.0)
        values[name] = value
        with pytest.raises(ValueError, match="must be finite"):
            Params(**values)


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

    @pytest.mark.parametrize("where", ["coupling", "Q", "c", "c0", "b"])
    def test_nonfinite_data_is_an_error(self, where):
        # a hand-built problem with a value that is not finite gets an
        # error, not an exception from the rank test
        prob, _ = build_qp(1)
        blocks = list(prob.blocks)
        blk, b = blocks[1], prob.b.copy()
        objective = blk.objective
        if where == "coupling":
            A = blk.coupling.toarray()
            A[0, 0] = np.nan
            blk = BlockSpec(n=blk.n, objective=objective, set=blk.set,
                            coupling=A)
        elif where == "b":
            b[0] = np.inf
        else:
            Q, c, c0 = objective.Q.toarray(), objective.c.copy(), objective.c0
            if where == "Q":
                Q[0, 0] = np.inf
            elif where == "c":
                c[-1] = -np.inf
            else:
                c0 = np.nan
            blk = BlockSpec(n=blk.n, objective=Quadratic(Q, c, c0),
                            set=blk.set, coupling=blk.coupling)
        blocks[1] = blk
        rep = validate_problem(Problem(m=prob.m, b=b, blocks=blocks))
        want = {"coupling": "block 1: coupling", "b": "b"}.get(
            where, "block 1: objective")
        assert rep.errors == [f"{want} holds a value that is not finite"]

    def test_unbounded_equality_warns(self):
        eq = Quadratic(sp.csr_matrix((1, 1)), np.ones(1), -1.0)
        blk = BlockSpec(
            n=1, objective=Quadratic(sp.eye(1, format="csr"), np.zeros(1)),
            set=ConstraintSet(np.array([-np.inf]), np.array([np.inf]), [eq]),
            coupling=sp.csr_matrix(np.ones((1, 1))))
        rep = validate_problem(Problem(m=1, b=np.zeros(1), blocks=[blk]))
        assert rep.ok and rep.warnings


def dense_rank(A):
    """The rank test on the whole dense matrix: one pivoted QR."""
    A = A.toarray()
    _, R, _ = scipy.linalg.qr(A.T if A.shape[0] > A.shape[1] else A,
                              pivoting=True, mode="economic")
    diag = np.abs(np.diag(R))
    largest = diag[0] if diag.size else 0.0
    return int(np.sum(diag > RANK_DROP_TOL * largest)) if largest > 0 else 0


def permuted_block_diag(rng, parts):
    """diag(parts) with its rows and columns shuffled, in CSR."""
    D = sp.block_diag(parts, format="csr")
    rows, cols = rng.permutation(D.shape[0]), rng.permutation(D.shape[1])
    return D[rows][:, cols].tocsr()


class TestCouplingRank:
    """``coupling_rank`` runs one QR per connected component of the rows
    and compares every pivot to one scale."""

    def test_deficient_component_next_to_well_scaled_one(self):
        rng = np.random.default_rng(1)
        A = permuted_block_diag(rng, [
            rng.standard_normal((3, 5)),
            np.array([[1.0, 2.0], [2.0, 4.0]])])
        assert coupling_rank(A) == dense_rank(A) == 4
        blk = BlockSpec(
            n=7, objective=Quadratic(sp.eye(7, format="csr"), np.zeros(7)),
            set=ConstraintSet(np.full(7, -np.inf), np.full(7, np.inf)),
            coupling=A)
        rep = validate_problem(Problem(m=5, b=np.zeros(5), blocks=[blk]))
        assert rep.errors == ["coupling matrix rank-deficient: rank 4 < m=5"]

    @pytest.mark.parametrize("tiny, full", [(1e-12, 2), (1e-3, 4)])
    def test_one_scale_for_all_components(self, tiny, full):
        # a full-rank component at scale tiny next to one at scale 1e6: its
        # pivots count only when they clear RANK_DROP_TOL * 1e6, as in one
        # QR of the whole matrix
        rng = np.random.default_rng(2)
        A = permuted_block_diag(rng, [1e6 * rng.standard_normal((2, 3)),
                                      tiny * np.array([[1.0, 0.5],
                                                       [-0.5, 1.0]])])
        assert coupling_rank(A) == dense_rank(A) == full

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_dense_qr(self, seed):
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(int(rng.integers(1, 6))):
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            M = rng.standard_normal((p, q)) * (rng.uniform(size=(p, q)) < 0.7)
            if rng.uniform() < 0.3:
                M[-1] = M[0]
            parts.append(M)
        parts.append(np.zeros((1, 2)))
        A = permuted_block_diag(rng, parts)
        assert coupling_rank(A) == dense_rank(A)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_components_match_csgraph(self, seed):
        from scipy.sparse.csgraph import connected_components
        rng = np.random.default_rng(seed)
        L = 200
        # a path of rows in shuffled order, next to random sparse rows
        path = sp.csr_matrix(
            (np.ones(2 * L), (np.repeat(rng.permutation(L), 2),
                              np.stack([np.arange(L), np.arange(L) + 1],
                                       axis=1).ravel())), shape=(L, L + 1))
        A = sp.block_diag([path, sp.random(60, 90, density=0.02,
                                           random_state=seed)], format="csr")
        m = A.shape[0]
        graph = sp.bmat([[sp.csr_matrix((m, m)), A], [A.T, None]])
        _, label = connected_components(graph, directed=False)
        want = np.unique(label[:m], return_inverse=True)[1]
        assert np.array_equal(model.row_components(A), want)

    def test_empty_shapes(self):
        assert coupling_rank(sp.csr_matrix((0, 4))) == 0
        assert coupling_rank(sp.csr_matrix((3, 0))) == 0
        assert coupling_rank(sp.csr_matrix((3, 4))) == 0

    def test_generated_problems_keep_their_rank(self):
        from proxjacobi import problems
        cases = [problems.coupled_qp(3, 6, [2, 3, 4, 2, 3, 4], 5),
                 problems.gen_multiperiod_dispatch(12, 3, 0.1),
                 problems.gen_acopf_toy(problems.toy_network(nbus=3, T=6), 6)]
        cases.append(variable_splitting_transform(cases[1]))
        for prob in cases:
            A = sp.hstack([blk.coupling for blk in prob.blocks], format="csr")
            assert coupling_rank(A) == dense_rank(A) == prob.m
            assert validate_problem(prob).ok


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


class TestCouplingRows:
    def test_nonzero_rows_block_after_block(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        K, _, row, block = prob.coupling_rows
        assert np.all(np.diff(K.indptr) > 0)
        assert np.all(np.diff(block) >= 0)
        o = prob.offsets
        for t, blk in enumerate(prob.blocks):
            A = blk.coupling.toarray()
            mine = block == t
            assert np.array_equal(row[mine], np.flatnonzero(A.any(axis=1)))
            dense = K[np.flatnonzero(mine)].toarray()
            assert np.array_equal(dense[:, o[t]:o[t + 1]], A[row[mine]])
            assert not np.delete(dense, np.s_[o[t]:o[t + 1]], axis=1).any()

    def test_group_stacks_match_block_dense(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        assert prob.quadratic_groups
        for grp in prob.quadratic_groups:
            for i, t in enumerate(grp.blocks):
                blk = prob.blocks[t]
                A = blk.coupling.toarray()
                assert np.array_equal(grp.Q[i],
                                      blk.objective.Q.toarray()), t
                assert np.array_equal(grp.AtA[i], A.T @ A), t

    def test_objective_value_is_sum_of_blocks(self, sparse_coupling_problem):
        prob = sparse_coupling_problem
        blocks = [BlockSpec(n=blk.n, objective=Quadratic(
            blk.objective.Q, blk.objective.c, 0.5 + t), set=blk.set,
            coupling=blk.coupling) for t, blk in enumerate(prob.blocks)]
        prob = Problem(m=prob.m, b=prob.b, blocks=blocks)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(sum(prob.dims))
        expected = sum(blk.objective.value(xt)
                       for blk, xt in zip(prob.blocks, prob.split(x)))
        assert prob.objective_value(
            x, prob.objective_products(x)) == pytest.approx(
            expected, rel=1e-12)


@pytest.mark.parametrize("nbus", [3, 5])
@pytest.mark.parametrize("split", [False, True])
def test_stacked_equality_map_matches_rows(nbus, split):
    # values, Jacobian and weighted Hessian on a (k, n) stack, with per-row
    # right-hand sides, equal the one-point evaluations bit for bit; the
    # split blocks mix polar rows with linear rows
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=nbus, T=3), 3)
    if split:
        prob = variable_splitting_transform(prob)
    rng = np.random.default_rng(nbus)
    for blk in prob.blocks:
        emap = blk.set.equality_map
        r, n, k = len(emap.d), blk.n, 5
        assert emap.networks and not emap.quadratic_rows.size
        assert (r > 2 * nbus) == split
        X = rng.uniform(-1.5, 1.5, (k, n))
        D = rng.standard_normal((k, r))
        W = rng.standard_normal((k, r))
        c, J, H = (emap.values(X, D), emap.jacobian(X),
                   emap.weighted_hessian(X, W))
        assert c.shape == (k, r) and J.shape == (k, r, n)
        assert H.shape == (k, n, n)
        for i in range(k):
            assert np.array_equal(c[i], emap.values(X[i], D[i]))
            assert np.array_equal(J[i], emap.jacobian(X[i]))
            assert np.array_equal(H[i], emap.weighted_hessian(X[i], W[i]))
        assert np.array_equal(emap.values(X)[0], emap.values(X[0]))
        assert np.allclose(emap.values(X[0]) - emap.values(X[0], D[0]),
                           D[0] - emap.d, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 4])
def test_quadratic_rows_on_a_stack(k):
    # the rows with Q != 0, between polar rows and beside a Q = 0 row,
    # evaluate on a stack as one batched term, each row of the stack bit
    # for bit its one-point result: the inner ALM of a one-block solve
    # evaluates its map on the stack k = 1
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=1), 1)
    blk, = prob.blocks
    n = blk.n
    circle = Quadratic(sp.diags(np.linspace(1.0, 2.0, n), format="csr"),
                       np.ones(n), -1.0)
    rng = np.random.default_rng(k)
    M = rng.standard_normal((n, n))
    dense = Quadratic(sp.csr_matrix(M + M.T), rng.standard_normal(n), 0.5)
    line = Quadratic(sp.csr_matrix((n, n)), np.ones(n), -2.0)
    eqs = [dense, *blk.set.equalities[:2], line, *blk.set.equalities[2:],
           circle]
    emap = model.EqualityMap(eqs, n)
    assert emap.networks and emap.quadratic_rows.tolist() == [0, len(eqs) - 1]
    X = rng.uniform(-1.5, 1.5, (k, n))
    W = rng.standard_normal((k, len(emap.d)))
    c, J, H = (emap.values(X), emap.jacobian(X),
               emap.weighted_hessian(X, W))
    for i in range(k):
        assert np.array_equal(c[i], emap.values(X[i]))
        assert np.array_equal(J[i], emap.jacobian(X[i]))
        assert np.array_equal(H[i], emap.weighted_hessian(X[i], W[i]))
    # the linear part of a quadratic row is summed with C x, so its value
    # and gradient match the row's own within rounding
    quadratic = [0, 3, len(eqs) - 1]
    for j in quadratic:
        assert c[0, j] == pytest.approx(eqs[j].value(X[0]), rel=1e-14)
        assert np.allclose(J[0, j], eqs[j].gradient(X[0]), rtol=1e-14,
                           atol=1e-14)
    polar = model.EqualityMap(eqs[1:3] + eqs[4:-1], n)
    want = (W[0, 0] * dense.Q.toarray() + W[0, -1] * circle.Q.toarray()
            + polar.weighted_hessian(X[0], np.delete(W[0], quadratic)))
    assert np.allclose(H[0], want, rtol=1e-13, atol=1e-13)


class TestNonlinearGroups:
    def test_acopf_periods_form_one_group(self):
        prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=12), 12)
        grp, = prob.quadratic_groups
        assert grp.kind == "alm" and grp.blocks == list(range(12))
        for i, blk in enumerate(prob.blocks):
            emap = blk.set.equality_map
            assert emap.structure == grp.equality_map.structure
            assert np.array_equal(grp.d[i], emap.d)
            assert np.array_equal(grp.lower[i], blk.set.lower)
            assert np.array_equal(grp.upper[i], blk.set.upper)
        assert len({tuple(d) for d in grp.d}) > 1

    def test_other_equality_structures_stay_single(self):
        # block 5 with another admittance row, block 7 with an extra Q != 0
        # row; a one-block structure is a group of one as well
        prob = acopf_variant("admittance", "circle")
        grp, five, seven = prob.quadratic_groups
        assert grp.blocks == [t for t in range(12) if t not in (5, 7)]
        assert five.blocks == [5] and seven.blocks == [7]
        assert grp.kind == five.kind == seven.kind == "alm"
        assert seven.equality_map is prob.blocks[7].set.equality_map
        one = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=1), 1)
        grp, = one.quadratic_groups
        assert grp.kind == "alm" and grp.blocks == [0]


def acopf_variant(*changes):
    """The 12-period ACOPF toy with block 5's admittance row at bus 0
    changed in both of its balances (``"admittance"``) and with an extra
    Q != 0 row in block 7 (``"circle"``) or in every block, its constant
    by block (``"circles"``)."""
    prob = problems.gen_acopf_toy(problems.toy_network(nbus=3, T=12), 12)
    if "admittance" in changes:
        prob = replace_equalities(prob, 5, [model.PolarBalance(
            eq.name, dict(eq.payload, y_diag_re=eq.y_diag_re + 1.0))
            if eq.bus == 0 else eq for eq in prob.blocks[5].set.equalities])
    if "circle" in changes:
        n = prob.blocks[7].n
        circle = Quadratic(sp.eye(n, format="csr"), np.zeros(n), -1.0)
        prob = replace_equalities(prob, 7,
                                  prob.blocks[7].set.equalities + [circle])
    if "circles" in changes:
        n = prob.blocks[0].n
        for t in range(prob.T):
            circle = Quadratic(sp.eye(n, format="csr"), np.zeros(n),
                               -1.0 - 0.1 * t)
            prob = replace_equalities(
                prob, t, prob.blocks[t].set.equalities + [circle])
    return prob


@pytest.mark.parametrize("case, groups", [
    ("mixed", [("exact", [0, 3, 6]), ("exact", [1, 5]), ("box", [2]),
               ("qp", [4])]),
    ("split", [("qp", [t]) for t in range(7)]),
    ("admittance", [("alm", [t for t in range(12) if t != 5]),
                    ("alm", [5])]),
    ("circle", [("alm", [t for t in range(12) if t != 7]), ("alm", [7])]),
    ("circles", [("alm", list(range(12)))]),
], ids=["mixed", "split", "admittance", "circle", "circles"])
def test_groups_partition_the_blocks(case, groups):
    # every block is in exactly one group, of the kind its set asks for,
    # and the groups come in the order of their first blocks
    if case in ("mixed", "split"):
        prob = mixed_problem()
        if case == "split":
            prob = variable_splitting_transform(prob)
    else:
        prob = acopf_variant(case)
    got = prob.quadratic_groups
    assert [(grp.kind, grp.blocks) for grp in got] == groups
    assert sorted(t for grp in got for t in grp.blocks) == list(range(prob.T))
    cols = np.concatenate([grp.cols for grp in got])
    assert np.array_equal(np.sort(cols), np.arange(sum(prob.dims)))
    for grp in got:
        lo = np.stack([prob.blocks[t].set.lower for t in grp.blocks])
        assert np.array_equal(grp.lower, lo)
        if grp.kind in ("qp", "alm"):
            assert np.array_equal(grp.d, np.stack(
                [prob.blocks[t].set.equality_map.d for t in grp.blocks]))
