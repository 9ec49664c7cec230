"""Problem data model: smooth functions, block specs, parameters, iterate state.

Problems are collections of ``T`` variable blocks, each with a smooth
objective, a constraint set (bounds plus scalar equality functions) and a
sparse coupling matrix; the blocks interact only through the shared linear
constraint ``sum_t A_t x_t = b``.
"""

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, qr

from . import _polar

RANK_DROP_TOL = 1e-10


class SchemaError(ValueError):
    """Raised when a problem document violates the JSON schema."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def triplets_to_csr(triplets, shape):
    """Build a CSR matrix from ``[row, col, value]`` triplets.

    Duplicate entries are summed.
    """
    if len(triplets) == 0:
        return sp.csr_matrix(shape)
    arr = np.asarray(triplets, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triplets must be a list of [row, col, value]")
    rows = arr[:, 0].astype(int)
    cols = arr[:, 1].astype(int)
    if np.any(rows < 0) or np.any(rows >= shape[0]):
        raise ValueError("triplet row index out of range")
    if np.any(cols < 0) or np.any(cols >= shape[1]):
        raise ValueError("triplet col index out of range")
    mat = sp.coo_matrix((arr[:, 2], (rows, cols)), shape=shape)
    mat.sum_duplicates()
    return mat.tocsr()


def csr_to_triplets(mat):
    """Canonical triplet list of a sparse matrix: sorted by (row, col)."""
    coo = sp.coo_matrix(mat)
    coo.sum_duplicates()
    order = np.lexsort((coo.col, coo.row))
    return [
        [int(coo.row[i]), int(coo.col[i]), float(coo.data[i])]
        for i in order
        if coo.data[i] != 0.0
    ]


class SmoothFunction:
    """A C^1 scalar function of a block vector."""

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


class Quadratic(SmoothFunction):
    """f(x) = 0.5 x'Qx + c'x + c0 with symmetric sparse Q.

    Asymmetric inputs are symmetrized as (Q + Q')/2: x'Qx only sees the
    symmetric part.
    """

    def __init__(self, Q, c, c0=0.0):
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        Q = sp.csr_matrix(Q, shape=(n, n), dtype=float)
        if (Q != Q.T).nnz:
            Q = ((Q + Q.T) * 0.5).tocsr()
        self.Q = Q
        self.c = c
        self.c0 = float(c0)
        self.n = n

    def value(self, x):
        xn = np.asarray(x, dtype=float)[: self.n]
        return float(0.5 * xn @ (self.Q @ xn) + self.c @ xn + self.c0)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[: self.n] = self.Q @ x[: self.n] + self.c
        return g

    def hessian(self, x):
        """Dense Hessian on the (possibly padded) space of ``x``."""
        x = np.asarray(x, dtype=float)
        H = np.zeros((x.shape[0], x.shape[0]))
        H[: self.n, : self.n] = self.Q.toarray()
        return H

    def padded(self, extra):
        """Same function on a space with ``extra`` trailing coordinates."""
        c = np.concatenate([self.c, np.zeros(extra)])
        Q = sp.csr_matrix(
            (self.Q.data, self.Q.indices, np.concatenate(
                [self.Q.indptr, np.full(extra, self.Q.indptr[-1])])),
            shape=(self.n + extra, self.n + extra),
        )
        return Quadratic(Q, c, self.c0)

    def to_json(self):
        return {
            "type": "quadratic",
            "Q": csr_to_triplets(self.Q),
            "c": [float(v) for v in self.c],
            "c0": self.c0,
        }


class PolarBalance(SmoothFunction):
    """AC power-balance residual at one bus, in polar voltage coordinates.

    The real variant evaluates ``sum(p_g at the bus) - load - c_re(V, th)``
    and the imaginary variant the reactive counterpart.  The payload maps
    block coordinates to network quantities:

    - ``bus``: bus index i
    - ``nbus``: number of buses
    - ``load``: real or reactive demand at the bus
    - ``gen_coords``: block coordinates of the generators feeding the bus
    - ``v_offset`` / ``theta_offset``: block offsets of V and theta
    - ``y_diag_re`` / ``y_diag_im``: shunt-adjusted diagonal entry Y_ii
    - ``neighbors``: neighbor bus list N_i
    - ``y_re`` / ``y_im``: off-diagonal admittances Y_ij matching neighbors
    """

    def __init__(self, name, payload):
        if name not in ("acopf_re", "acopf_im"):
            raise ValueError(f"unknown builtin function {name!r}")
        self.name = name
        self.payload = payload
        self.bus = int(payload["bus"])
        self.nbus = int(payload["nbus"])
        self.load = float(payload["load"])
        self.gen_coords = [int(g) for g in payload["gen_coords"]]
        self.v_offset = int(payload["v_offset"])
        self.theta_offset = int(payload["theta_offset"])
        self.y_diag_re = float(payload["y_diag_re"])
        self.y_diag_im = float(payload["y_diag_im"])
        self.neighbors = [int(j) for j in payload["neighbors"]]
        self.y_re = [float(v) for v in payload["y_re"]]
        self.y_im = [float(v) for v in payload["y_im"]]

    def _split(self, x):
        V = x[self.v_offset:self.v_offset + self.nbus]
        th = x[self.theta_offset:self.theta_offset + self.nbus]
        return V, th

    def value(self, x):
        x = np.asarray(x, dtype=float)
        V, th = self._split(x)
        c_re, c_im = _polar.balance_terms(
            self.bus, V, th, self.y_diag_re, self.y_diag_im,
            self.neighbors, self.y_re, self.y_im)
        injected = float(sum(x[g] for g in self.gen_coords))
        c = c_re if self.name == "acopf_re" else c_im
        return injected - self.load - c

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        V, th = self._split(x)
        dre_dV, dre_dth, dim_dV, dim_dth = _polar.balance_gradients(
            self.bus, V, th, self.y_diag_re, self.y_diag_im,
            self.neighbors, self.y_re, self.y_im)
        g = np.zeros_like(x)
        for gc in self.gen_coords:
            g[gc] = 1.0
        if self.name == "acopf_re":
            dV, dth = dre_dV, dre_dth
        else:
            dV, dth = dim_dV, dim_dth
        g[self.v_offset:self.v_offset + self.nbus] = -dV
        g[self.theta_offset:self.theta_offset + self.nbus] = -dth
        return g

    def hessian(self, x):
        """Dense Hessian; the generator coordinates enter linearly."""
        x = np.asarray(x, dtype=float)
        V, th = self._split(x)
        H_re, H_im = _polar.balance_hessians(
            self.bus, V, th, self.y_diag_re, self.y_diag_im,
            self.neighbors, self.y_re, self.y_im)
        Hc = H_re if self.name == "acopf_re" else H_im
        nb = self.nbus
        H = np.zeros((x.shape[0], x.shape[0]))
        vs = slice(self.v_offset, self.v_offset + nb)
        ts = slice(self.theta_offset, self.theta_offset + nb)
        H[vs, vs] = -Hc[:nb, :nb]
        H[vs, ts] = -Hc[:nb, nb:]
        H[ts, vs] = -Hc[nb:, :nb]
        H[ts, ts] = -Hc[nb:, nb:]
        return H

    def to_json(self):
        return {"type": "builtin", "name": self.name, "payload": self.payload}


def function_from_json(doc, path="function"):
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError(path, "expected an object with a 'type' field")
    kind = doc["type"]
    if kind == "quadratic":
        for key in ("Q", "c"):
            if key not in doc:
                raise SchemaError(f"{path}.{key}", "missing required field")
        c = np.asarray(doc["c"], dtype=float)
        n = c.shape[0]
        try:
            Q = triplets_to_csr(doc["Q"], (n, n))
        except ValueError as exc:
            raise SchemaError(f"{path}.Q", str(exc)) from exc
        return Quadratic(Q, c, float(doc.get("c0", 0.0)))
    if kind == "builtin":
        for key in ("name", "payload"):
            if key not in doc:
                raise SchemaError(f"{path}.{key}", "missing required field")
        try:
            return PolarBalance(doc["name"], doc["payload"])
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"{path}.payload", str(exc)) from exc
    raise SchemaError(f"{path}.type", f"unknown function type {kind!r}")


@dataclass
class ConstraintSet:
    """Block feasible set: a box plus scalar equality functions."""

    lower: np.ndarray
    upper: np.ndarray
    equalities: list = field(default_factory=list)

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors differ in length")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n(self):
        return self.lower.shape[0]

    @property
    def has_bounds(self):
        return bool(np.any(np.isfinite(self.lower)) or np.any(np.isfinite(self.upper)))

    @property
    def all_bounds_finite(self):
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def equality_values(self, x):
        return np.array([eq.value(x) for eq in self.equalities], dtype=float)

    def violation(self, x):
        """Max of bound and equality violations at ``x``."""
        x = np.asarray(x, dtype=float)
        v = max(
            float(np.max(self.lower - x, initial=0.0)),
            float(np.max(x - self.upper, initial=0.0)),
        )
        if self.equalities:
            v = max(v, float(np.max(np.abs(self.equality_values(x)))))
        return v


@dataclass
class BlockSpec:
    """One block: dimension, objective f_t, set X_t, coupling matrix A_t.

    Derived forms of the data are computed on first use and kept, so the
    fields must not be reassigned once the block is in use.
    """

    n: int
    objective: SmoothFunction
    set: ConstraintSet
    coupling: sp.csr_matrix

    def __post_init__(self):
        self.coupling = sp.csr_matrix(self.coupling, dtype=float)
        self._factor = (None, None)

    @cached_property
    def coupling_T(self):
        """A_t' in CSR form."""
        return self.coupling.T.tocsr()

    @cached_property
    def Q_dense(self):
        """Dense Q_t of a quadratic objective."""
        return self.objective.Q.toarray()

    @cached_property
    def AtA_dense(self):
        """Dense A_t'A_t."""
        return (self.coupling_T @ self.coupling).toarray()

    def hessian_factor(self, w):
        """Cholesky factor of Q_t + w A_t'A_t, kept for the latest ``w``
        only (a change of rho or tau_x refactors).  Raises LinAlgError when
        the matrix is not positive definite."""
        key, cho = self._factor
        if key != w:
            cho = cho_factor(self.Q_dense + w * self.AtA_dense)
            self._factor = (w, cho)
        return cho


@dataclass
class Problem:
    """T-block problem coupled through ``sum_t A_t x_t = b``."""

    m: int
    b: np.ndarray
    blocks: list

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)

    @property
    def T(self):
        return len(self.blocks)

    @property
    def dims(self):
        return [blk.n for blk in self.blocks]

    def stacked_coupling(self):
        """Dense stacked coupling matrix A = [A_1 ... A_T]."""
        return np.hstack([blk.coupling.toarray() for blk in self.blocks])


@dataclass(frozen=True)
class Params:
    """Penalty parameters (rho, theta) and proximal weights (tau_x, tau_z)."""

    rho: float
    theta: float
    tau_x: float
    tau_z: float

    def __post_init__(self):
        if self.rho <= 0 or self.theta <= 0:
            raise ValueError("penalty parameters must be positive")
        if self.tau_x < 0 or self.tau_z < 0:
            raise ValueError("proximal weights must be nonnegative")


@dataclass
class IterateState:
    """Mutable iterate (x, z, lambda) plus the lagged quantities.

    At k = 0 the conventions are ``dz = -(lam + theta z) / tau_z`` and
    ``x_prev = x`` so that the first x-differences vanish.
    """

    x: list
    z: np.ndarray
    lam: np.ndarray
    x_prev: list
    z_prev: np.ndarray
    lam_prev: np.ndarray
    dz: np.ndarray
    k: int = 0

    def copy(self):
        return IterateState(
            x=[xi.copy() for xi in self.x],
            z=self.z.copy(),
            lam=self.lam.copy(),
            x_prev=[xi.copy() for xi in self.x_prev],
            z_prev=self.z_prev.copy(),
            lam_prev=self.lam_prev.copy(),
            dz=self.dz.copy(),
            k=self.k,
        )


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors


def validate_problem(problem):
    """Check dimensions, bound ordering and full row rank of the coupling.

    Rank deficiency of the stacked coupling matrix is a hard error;
    unbounded sets combined with equality constraints only warn, since the
    penalty subproblems remain well posed in practice.
    """
    rep = ValidationReport()
    if problem.T < 1:
        rep.errors.append("problem has no blocks")
        return rep
    if problem.b.shape != (problem.m,):
        rep.errors.append(
            f"b has length {problem.b.shape[0]}, expected m={problem.m}")
    for t, blk in enumerate(problem.blocks):
        if blk.coupling.shape != (problem.m, blk.n):
            rep.errors.append(
                f"block {t}: coupling shape {blk.coupling.shape} != "
                f"({problem.m}, {blk.n})")
        if blk.set.n != blk.n:
            rep.errors.append(
                f"block {t}: bounds length {blk.set.n} != n={blk.n}")
        if isinstance(blk.objective, Quadratic) and blk.objective.n != blk.n:
            rep.errors.append(
                f"block {t}: objective dimension {blk.objective.n} != n={blk.n}")
        for j, eq in enumerate(blk.set.equalities):
            if isinstance(eq, Quadratic) and eq.n > blk.n:
                rep.errors.append(
                    f"block {t}: equality {j} dimension {eq.n} exceeds n={blk.n}")
        if blk.set.equalities and not blk.set.all_bounds_finite:
            rep.warnings.append(
                f"block {t}: equality constraints with unbounded box; "
                "compactness of the block set cannot be verified")
    if rep.errors:
        return rep
    if problem.m > 0:
        A = problem.stacked_coupling()
        _, R, _ = qr(A.T if A.shape[0] > A.shape[1] else A, pivoting=True,
                     mode="economic")
        diag = np.abs(np.diag(R))
        largest = diag[0] if diag.size else 0.0
        rank = int(np.sum(diag > RANK_DROP_TOL * largest)) if largest > 0 else 0
        if rank < problem.m:
            rep.errors.append(
                f"coupling matrix rank-deficient: rank {rank} < m={problem.m}")
    return rep


def _bounds_from_json(doc, n, path):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object with 'lower' and 'upper'")
    out = []
    for key in ("lower", "upper"):
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing required field")
        vals = doc[key]
        if len(vals) != n:
            raise SchemaError(f"{path}.{key}", f"length {len(vals)} != n={n}")
        out.append(np.array([float(v) for v in vals]))
    return out


def load_problem(text):
    """Parse a JSON problem document into a :class:`Problem`.

    Deterministic: identical text yields an identical in-memory problem;
    repeated matrix triplets are summed.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}", f"JSON parse error: {exc.msg}")
    for key in ("m", "b", "blocks"):
        if key not in doc:
            raise SchemaError(key, "missing required field")
    m = int(doc["m"])
    b = np.asarray(doc["b"], dtype=float)
    blocks = []
    for t, bdoc in enumerate(doc["blocks"]):
        path = f"blocks[{t}]"
        for key in ("n", "objective", "bounds", "A"):
            if key not in bdoc:
                raise SchemaError(f"{path}.{key}", "missing required field")
        n = int(bdoc["n"])
        objective = function_from_json(bdoc["objective"], f"{path}.objective")
        lower, upper = _bounds_from_json(bdoc["bounds"], n, f"{path}.bounds")
        eqs = [
            function_from_json(e, f"{path}.equalities[{j}]")
            for j, e in enumerate(bdoc.get("equalities", []))
        ]
        try:
            A = triplets_to_csr(bdoc["A"], (m, n))
        except ValueError as exc:
            raise SchemaError(f"{path}.A", str(exc)) from exc
        try:
            cset = ConstraintSet(lower, upper, eqs)
        except ValueError as exc:
            raise SchemaError(f"{path}.bounds", str(exc)) from exc
        blocks.append(BlockSpec(n=n, objective=objective, set=cset, coupling=A))
    return Problem(m=m, b=b, blocks=blocks)


def _bound_to_json(v):
    if v == float("inf"):
        return "inf"
    if v == float("-inf"):
        return "-inf"
    return float(v)


def save_problem(problem):
    """Serialize to the canonical JSON text (byte-stable)."""
    doc = {
        "m": problem.m,
        "b": [float(v) for v in problem.b],
        "blocks": [
            {
                "n": blk.n,
                "objective": blk.objective.to_json(),
                "bounds": {
                    "lower": [_bound_to_json(v) for v in blk.set.lower],
                    "upper": [_bound_to_json(v) for v in blk.set.upper],
                },
                "equalities": [eq.to_json() for eq in blk.set.equalities],
                "A": csr_to_triplets(blk.coupling),
            }
            for blk in problem.blocks
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def variable_splitting_transform(problem):
    """Lift to the equivalent split form with auxiliary per-block y variables.

    Block t becomes (x_t, y_t) with the new equalities A_t x_t - y_t = 0
    folded into the block set, coupling matrices selecting y_t, and the
    coupling constraint sum_t y_t = b.  Any feasible x extends to a feasible
    point of the lifted problem via y_t = A_t x_t.
    """
    m = problem.m
    blocks = []
    for blk in problem.blocks:
        n_new = blk.n + m
        if isinstance(blk.objective, Quadratic):
            objective = blk.objective.padded(m)
        else:
            objective = blk.objective
        lower = np.concatenate([blk.set.lower, np.full(m, -np.inf)])
        upper = np.concatenate([blk.set.upper, np.full(m, np.inf)])
        eqs = list(blk.set.equalities)
        A_dense = blk.coupling.toarray()
        for i in range(m):
            c = np.zeros(n_new)
            c[: blk.n] = A_dense[i]
            c[blk.n + i] = -1.0
            eqs.append(Quadratic(sp.csr_matrix((n_new, n_new)), c, 0.0))
        selector = sp.hstack(
            [sp.csr_matrix((m, blk.n)), sp.identity(m, format="csr")]
        ).tocsr()
        blocks.append(BlockSpec(
            n=n_new,
            objective=objective,
            set=ConstraintSet(lower, upper, eqs),
            coupling=selector,
        ))
    return Problem(m=m, b=problem.b.copy(), blocks=blocks)
