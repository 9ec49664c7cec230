"""Problem data model: objectives, equality maps, block specs, parameters,
iterate state.

Problems are collections of ``T`` variable blocks, each with a quadratic
objective, a constraint set (bounds plus equality rows, evaluated together
as one map) and a sparse coupling matrix; the blocks interact only through
the shared linear constraint ``sum_t A_t x_t = b``.

Loading converts the triplets of every Q_t together, those of every
quadratic equality's Q together, and those of every A_t together, into the
stacks diag(Q_1, ..., Q_T), diag of the equality Qs and diag(A_1, ..., A_T);
each of the blocks' own matrices is a view on its stack until it is first
read.  The problem keeps the coupling in one form, the nonzero rows of
diag(A_1, ..., A_T); validation tests its rank one connected component of
its rows at a time.
"""

import gc
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr

RANK_DROP_TOL = 1e-10


class SchemaError(ValueError):
    """Raised when a problem document violates the JSON schema."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def triplets_to_csr(triplets, shape):
    """Build a CSR matrix from ``[row, col, value]`` triplets.

    Duplicate entries are summed.
    """
    return _triplet_diag([triplets], [shape])


def _triplet_diag(lists, shapes):
    """diag(M_1, ..., M_k) in CSR, where M_t has the shape ``shapes[t]`` and
    the ``[row, col, value]`` triplets ``lists[t]``; duplicate entries are
    summed.  All the lists are converted together: one array, one range check
    of every entry against its own matrix's shape and one COO to CSR
    conversion.  Raises ValueError on a malformed list or an index out of
    range."""
    flat = lists[0] if len(lists) == 1 else list(chain.from_iterable(lists))
    arr = np.asarray(flat, dtype=float) if len(flat) else np.empty((0, 3))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("triplets must be a list of [row, col, value]")
    shapes = np.array(shapes, dtype=int).reshape(-1, 2)
    block = np.repeat(np.arange(len(shapes)), [len(trips) for trips in lists])
    index = arr[:, :2]
    if np.any(index != np.trunc(index)):  # a NaN index too
        raise ValueError("triplet index is not an integer")
    rows = arr[:, 0].astype(int)
    cols = arr[:, 1].astype(int)
    if np.any(rows < 0) or np.any(rows >= shapes[block, 0]):
        raise ValueError("triplet row index out of range")
    if np.any(cols < 0) or np.any(cols >= shapes[block, 1]):
        raise ValueError("triplet col index out of range")
    start = np.cumsum(shapes, axis=0) - shapes
    mat = sp.coo_matrix(
        (arr[:, 2], (rows + start[block, 0], cols + start[block, 1])),
        shape=tuple(shapes.sum(axis=0)))
    with np.errstate(over="ignore", invalid="ignore"):
        mat.sum_duplicates()  # a sum that is not finite is the caller's
    return mat.tocsr()


class _StackBlock(NamedTuple):
    """A diagonal block of the CSR matrix ``diag`` = diag(M_1, ..., M_k):
    the ``shape`` rows and columns from ``row`` and ``col``.  It tells its
    ``shape`` and ``nnz`` as M_t does, without building M_t; ``csr`` builds
    M_t as a CSR matrix over its own rows of ``diag``."""

    diag: sp.csr_matrix
    row: int
    col: int
    shape: tuple

    @property
    def nnz(self):
        ptr = self.diag.indptr
        return int(ptr[self.row + self.shape[0]] - ptr[self.row])

    def csr(self):
        ptr = self.diag.indptr[self.row:self.row + self.shape[0] + 1]
        lo, hi = ptr[0], ptr[-1]
        return sp.csr_matrix(
            (self.diag.data[lo:hi], self.diag.indices[lo:hi] - self.col,
             ptr - lo), shape=self.shape)


class _ViewsOnFirstRead:
    """Attributes held as :class:`_StackBlock` views in ``_views`` (name to
    view) until their first read, which builds the matrix and keeps it as
    the attribute itself.  An object without ``_views`` holds its
    attributes plainly."""

    def __getattr__(self, name):
        view = self.__dict__.get("_views", {}).get(name)
        if view is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = view.csr()
        return value

    def _peek(self, name):
        """The matrix ``name``, or its view while it is not built: both
        tell ``shape`` and ``nnz``."""
        view = self.__dict__.get("_views", {}).get(name)
        if view is None or name in self.__dict__:
            return getattr(self, name)
        return view


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


def _is_symmetric(Q):
    """Exact symmetry test of a square CSR matrix, entry by entry.

    In canonical form (entries sorted by row, then column, no duplicates)
    Q is symmetric when listing its entries by column, then row, gives the
    same sequence with rows and columns swapped.  A matrix not in canonical
    form, or with an explicit zero facing no entry, reads as asymmetric;
    symmetrizing it leaves its values unchanged.
    """
    if not Q.has_canonical_format:
        return False
    rows = np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))
    cols = Q.indices
    order = np.lexsort((rows, cols))
    return bool(np.array_equal(cols[order], rows)
                and np.array_equal(rows[order], cols)
                and np.array_equal(Q.data[order], Q.data))


class Quadratic(_ViewsOnFirstRead):
    """f(x) = 0.5 x'Qx + c'x + c0 with symmetric sparse Q.

    Asymmetric inputs are symmetrized as (Q + Q')/2: x'Qx only sees the
    symmetric part.  A loaded function holds Q as a view on its loader's
    stack until Q is first read.
    """

    def __init__(self, Q, c, c0=0.0):
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        if not (isinstance(Q, sp.csr_matrix) and Q.shape == (n, n)
                and Q.dtype == float):
            Q = sp.csr_matrix(Q, shape=(n, n), dtype=float)
        if not _is_symmetric(Q):
            Q = ((Q + Q.T) * 0.5).tocsr()
        self.Q = Q
        self.c = c
        self.c0 = float(c0)
        self.n = n

    @classmethod
    def _of_view(cls, view, c, c0, symmetric):
        """The quadratic of the matrix of the :class:`_StackBlock` ``view``,
        of shape (n, n), n = len(c).  When it is known to be ``symmetric``,
        it is taken untested and built on first read; otherwise it is built
        now, then tested and symmetrized as by ``Quadratic(...)``."""
        if not symmetric:
            return cls(view.csr(), c, c0)
        f = cls.__new__(cls)
        f._views = {"Q": view}
        f.c, f.c0, f.n = c, float(c0), c.shape[0]
        return f

    def value(self, x):
        xn = np.asarray(x, dtype=float)[: self.n]
        return float(0.5 * xn @ (self.Q @ xn) + self.c @ xn + self.c0)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[: self.n] = self.Q @ x[: self.n] + self.c
        return g

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


class PolarBalance:
    """AC power-balance row at one bus, in polar voltage coordinates.

    The real variant is ``sum(p_g at the bus) - load - Re S_i(V, th)`` and
    the imaginary variant the reactive counterpart, where
    ``S = U * conj(Y U)`` with ``U = V exp(j th)``.  The row holds its
    payload only; the block's :class:`EqualityMap` evaluates all the
    balances of one network together.  The payload maps block coordinates
    to network quantities:

    - ``bus``: bus index i
    - ``nbus``: number of buses
    - ``load``: real or reactive demand at the bus
    - ``gen_coords``: block coordinates of the generators feeding the bus
    - ``v_offset`` / ``theta_offset``: block offsets of V and theta
    - ``y_diag_re`` / ``y_diag_im``: shunt-adjusted diagonal entry Y_ii
    - ``neighbors``: neighbor bus list N_i
    - ``y_re`` / ``y_im``: off-diagonal admittances Y_ij matching neighbors

    An integer field (bus, nbus, gen_coords, v_offset, theta_offset,
    neighbors) holding a fraction, a bool or a string raises a
    :class:`SchemaError` naming ``payload.<field>``.
    """

    def __init__(self, name, payload):
        if name not in ("acopf_re", "acopf_im"):
            raise ValueError(f"unknown builtin function {name!r}")
        self.name = name
        self.payload = payload
        self.bus = _integer(payload["bus"], "payload.bus")
        self.nbus = _integer(payload["nbus"], "payload.nbus")
        self.load = float(payload["load"])
        self.gen_coords = [_integer(g, "payload.gen_coords")
                           for g in payload["gen_coords"]]
        self.v_offset = _integer(payload["v_offset"], "payload.v_offset")
        self.theta_offset = _integer(payload["theta_offset"],
                                     "payload.theta_offset")
        self.y_diag_re = float(payload["y_diag_re"])
        self.y_diag_im = float(payload["y_diag_im"])
        self.neighbors = [_integer(j, "payload.neighbors")
                          for j in payload["neighbors"]]
        self.y_re = [float(v) for v in payload["y_re"]]
        self.y_im = [float(v) for v in payload["y_im"]]

    def to_json(self):
        return {"type": "builtin", "name": self.name, "payload": self.payload}


def _polar_row_error(eq, n):
    """Why a polar balance row does not fit a block of dimension ``n``, or
    None when it does."""
    nb = eq.nbus
    if not 0 <= eq.bus < nb:
        return f"bus {eq.bus} out of range for nbus={nb}"
    for name, off in (("v_offset", eq.v_offset),
                      ("theta_offset", eq.theta_offset)):
        if not 0 <= off <= n - nb:
            return f"{name} {off} out of range for nbus={nb}, n={n}"
    if abs(eq.v_offset - eq.theta_offset) < nb:
        return "the V and theta coordinates overlap"
    if eq.gen_coords and not 0 <= min(eq.gen_coords) <= max(
            eq.gen_coords) < n:
        return f"gen_coords {eq.gen_coords} out of range for n={n}"
    if not len(eq.y_re) == len(eq.y_im) == len(eq.neighbors):
        return (f"y_re, y_im and neighbors differ in length "
                f"({len(eq.y_re)}, {len(eq.y_im)}, {len(eq.neighbors)})")
    if eq.neighbors and not 0 <= min(eq.neighbors) <= max(
            eq.neighbors) < nb:
        return f"neighbors {eq.neighbors} out of range for nbus={nb}"
    return None


def _matvec(M, X):
    """Row i is M_i X_i, for a stack M (k, p, q) and X (k, q); a single M
    (p, q) serves every row, and a 1-D X is one row."""
    return (M @ X[..., None])[..., 0]


def _dot(X, Y):
    """Row i is X_i'Y_i, for stacks X and Y (k, n)."""
    return (X[:, None, :] @ Y[..., None])[:, 0, 0]


class _PolarNetwork:
    """The polar balances of one network, S = U * conj(Y U) with
    U = V exp(j th), and their derivatives in complex-matrix form
    (Zimmerman, MATPOWER TN2, 2010).

    ``rows`` are the map rows of the balances, ``bus`` and ``imag`` the bus
    and the part (real or reactive) each of them reads, and ``cols`` the
    block coordinates of (V, theta).  Y gets one admittance row per bus,
    from the first balance of that bus.  Every method takes one point x
    (n,) or a stack of points (k, n), row by row.
    """

    def __init__(self, nbus, v_offset, theta_offset):
        self.nbus = nbus
        self.v = slice(v_offset, v_offset + nbus)
        self.th = slice(theta_offset, theta_offset + nbus)
        self.cols = np.array([*range(v_offset, v_offset + nbus),
                              *range(theta_offset, theta_offset + nbus)])
        self.Y = np.zeros((nbus, nbus), complex)
        self.first = {}
        self.rows, self.bus, self.imag = [], [], []

    def add(self, j, eq):
        """Take balance ``j``; raises ValueError when its bus already has a
        different admittance row."""
        y_row = (eq.y_diag_re, eq.y_diag_im, eq.neighbors, eq.y_re, eq.y_im)
        first, first_row = self.first.setdefault(eq.bus, (j, y_row))
        if first_row != y_row:
            raise ValueError(f"equality {j}: admittance row of bus {eq.bus} "
                             f"differs from equality {first}'s")
        if first == j:
            self.Y[eq.bus, eq.bus] += complex(eq.y_diag_re, eq.y_diag_im)
            for k, y_re, y_im in zip(eq.neighbors, eq.y_re, eq.y_im):
                self.Y[eq.bus, k] += complex(y_re, y_im)
        self.rows.append(j)
        self.bus.append(eq.bus)
        self.imag.append(eq.name == "acopf_im")

    @property
    def key(self):
        """Bytes equal for two networks exactly when they give the same
        rows the same balances."""
        return b"".join([np.array([self.nbus, self.v.start, self.th.start],
                                  dtype=np.int64).tobytes(),
                         self.Y.tobytes(), self.rows.tobytes(),
                         self.bus.tobytes(), self.imag.tobytes()])

    def _voltages(self, x):
        V = x[..., self.v]
        E = np.exp(1j * x[..., self.th])
        return V, E, V * E

    def _pick(self, S, matrix=False):
        """Re or Im of the bus entry of each row: S (..., nbus) gives
        (..., rows), and with ``matrix`` S (..., nbus, q) gives
        (..., rows, q)."""
        if matrix:
            S = S[..., self.bus, :]
            return np.where(self.imag[:, None], S.imag, S.real)
        S = S[..., self.bus]
        return np.where(self.imag, S.imag, S.real)

    def values(self, x):
        _, _, U = self._voltages(x)
        return self._pick(U * np.conj(_matvec(self.Y, U)))

    def jacobian(self, x):
        """d(rows)/d(V, theta), one row per balance."""
        _, E, U = self._voltages(x)
        I = _matvec(self.Y, U)
        diag = np.arange(self.nbus)
        UYc = U[..., :, None] * np.conj(self.Y)
        dV = UYc * np.conj(E)[..., None, :]
        dV[..., diag, diag] += E * np.conj(I)
        dth = -1j * UYc * np.conj(U)[..., None, :]
        dth[..., diag, diag] += 1j * U * np.conj(I)
        return self._pick(np.concatenate([dV, dth], axis=-1), matrix=True)

    def _bus_sums(self, w):
        """Per bus, the sum of the row weights w (..., rows)."""
        nb = self.nbus
        k = w.size // len(self.bus)
        slot = np.arange(k)[:, None] * nb + self.bus
        return np.bincount(slot.ravel(), w.ravel(), k * nb).reshape(
            w.shape[:-1] + (nb,))

    def weighted_hessian(self, x, w):
        """Hessian over (V, theta) of sum_i w_i (row i), through
        Re(lam^H S) = V'Re(W)V with lam the complex bus weights and
        W = (B + B^H)/2, B = diag(lam conj(E)) Y diag(E)."""
        V, E, _ = self._voltages(x)
        nb = self.nbus
        diag = np.arange(nb)
        lam = self._bus_sums(w * ~self.imag) + 1j * self._bus_sums(
            w * self.imag)
        B = (lam * np.conj(E))[..., :, None] * self.Y * E[..., None, :]
        ReW = 0.5 * (B.real + np.swapaxes(B.real, -1, -2))
        ImW = 0.5 * (B.imag - np.swapaxes(B.imag, -1, -2))
        H = np.empty(V.shape[:-1] + (2 * nb, 2 * nb))
        H[..., :nb, :nb] = 2.0 * ReW
        cross = V[..., :, None] * ImW
        cross[..., diag, diag] += _matvec(ImW, V)
        H[..., nb:, :nb] = 2.0 * cross
        H[..., :nb, nb:] = np.swapaxes(H[..., nb:, :nb], -1, -2)
        angle = V[..., :, None] * ReW * V[..., None, :]
        angle[..., diag, diag] -= V * _matvec(ReW, V)
        H[..., nb:, nb:] = 2.0 * angle
        return H


class EqualityMap:
    """The equalities of a block as one map c: R^n -> R^r, rows in the
    order of the list.

    c(x) = C x - d - (the S terms of the polar balances) + (x'Q_j x / 2 on
    each row j of ``quadratic_rows``).  Linear rows, the linear parts of the
    quadratic rows and the generator sums of the polar balances live in
    (C, d); the Q of each row with Q != 0, at n x n, in one stack ``Q``
    (q, n, n); the polar balances of each (nbus, v_offset, theta_offset)
    share one network.  Raises ValueError, naming the equality, on a row
    that does not fit the block or on two balances of one bus that carry
    different admittance rows.

    The values, Jacobian and weighted Hessian take one point x (n,) or a
    stack of points (k, n), row by row; the right-hand sides ``d`` of a
    stack default to the map's own and may be given per row, (k, r), for
    blocks that differ from this one in d only (``structure``).
    """

    def __init__(self, equalities, n):
        r = len(equalities)
        C = np.zeros((r, n))
        d = np.zeros(r)
        self.n = n
        rows = []
        nets = {}
        for j, eq in enumerate(equalities):
            if isinstance(eq, Quadratic):
                if eq.n > n:
                    raise ValueError(
                        f"equality {j} dimension {eq.n} exceeds n={n}")
                C[j, : eq.n] = eq.c
                d[j] = -eq.c0
                if eq._peek("Q").nnz:
                    rows.append(j)
                continue
            err = _polar_row_error(eq, n)
            if err is not None:
                raise ValueError(f"equality {j}: {err}")
            for g in eq.gen_coords:
                C[j, g] += 1.0
            d[j] = eq.load
            key = (eq.nbus, eq.v_offset, eq.theta_offset)
            if key not in nets:
                nets[key] = _PolarNetwork(*key)
            nets[key].add(j, eq)
        Q = np.zeros((len(rows), n, n))
        for i, j in enumerate(rows):
            m = equalities[j].n
            Q[i, :m, :m] = equalities[j].Q.toarray()
        for arr in (C, d, Q):
            arr.flags.writeable = False
        self.C, self.d, self.Q = C, d, Q
        self.quadratic_rows = np.array(rows, dtype=np.int64)
        self.networks = list(nets.values())
        for net in self.networks:
            net.rows, net.bus, net.imag = map(
                np.array, (net.rows, net.bus, net.imag))

    @property
    def linear_rows(self):
        """``(C, d)`` with ``C x = d`` equivalent to the equalities, or None
        when any of them is nonlinear."""
        if self.networks or self.quadratic_rows.size:
            return None
        return self.C, self.d

    @cached_property
    def structure(self):
        """Bytes equal for two maps exactly when they differ in d only: the
        row counts, C, the quadratic rows and their Q, then the key of each
        network."""
        return b"".join([np.array([len(self.C), len(self.Q)]).tobytes(),
                         self.C.tobytes(), self.quadratic_rows.tobytes(),
                         self.Q.tobytes(),
                         *(net.key for net in self.networks)])

    def values(self, x, d=None):
        c = _matvec(self.C, x) - (self.d if d is None else d)
        for net in self.networks:
            c[..., net.rows] -= net.values(x)
        if self.quadratic_rows.size:
            c[..., self.quadratic_rows] += 0.5 * _matvec(
                _matvec(self.Q, x[..., None, :]), x)
        return c

    def jacobian(self, x):
        J = np.array(np.broadcast_to(self.C, x.shape[:-1] + self.C.shape))
        for net in self.networks:
            J[..., net.rows[:, None], net.cols] -= net.jacobian(x)
        if self.quadratic_rows.size:
            J[..., self.quadratic_rows, :] += _matvec(self.Q, x[..., None, :])
        return J

    def weighted_hessian(self, x, w):
        """sum_i w_i times the Hessian of row i (w (r,), or (k, r) for a
        stack)."""
        H = np.zeros(x.shape[:-1] + (self.n, self.n))
        for net in self.networks:
            H[..., net.cols[:, None], net.cols] -= net.weighted_hessian(
                x, w[..., net.rows])
        if self.quadratic_rows.size:
            # take, not w[..., rows]: that copy is in column order, and
            # matmul would then sum a stack's rows unlike a single row's
            wq = np.take(w, self.quadratic_rows, axis=-1)
            H += (wq[..., None, :] @ self.Q.reshape(len(self.Q), -1)).reshape(
                H.shape)
        return H


def _quadratic_fields(doc, path):
    """``(c, c0)`` of a quadratic function document, once it is checked to
    hold ``Q`` and ``c``; ``Q`` is left to the caller."""
    for key in ("Q", "c"):
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing required field")
    c = _field(doc, "c", f"{path}.c", _vector)
    c0 = _field(doc, "c0", f"{path}.c0", float) if "c0" in doc else 0.0
    return c, c0


def function_from_json(doc, path="function"):
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError(path, "expected an object with a 'type' field")
    kind = doc["type"]
    if kind == "quadratic":
        c, c0 = _quadratic_fields(doc, path)
        try:
            Q = triplets_to_csr(doc["Q"], (len(c), len(c)))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.Q", str(exc)) from exc
        return Quadratic(Q, c, c0)
    if kind == "builtin":
        for key in ("name", "payload"):
            if key not in doc:
                raise SchemaError(f"{path}.{key}", "missing required field")
        try:
            return PolarBalance(doc["name"], doc["payload"])
        except SchemaError as exc:
            raise SchemaError(f"{path}.{exc.path}", exc.message) from exc
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"{path}.payload", str(exc)) from exc
    raise SchemaError(f"{path}.type", f"unknown function type {kind!r}")


@dataclass
class ConstraintSet:
    """Block feasible set: a box plus equality rows.

    The rows are evaluated together, as one :class:`EqualityMap` built on
    first use and kept, so the fields must not be reassigned once the set
    is in use.
    """

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
    def all_bounds_finite(self):
        return bool(np.isfinite(self.lower).all()
                    and np.isfinite(self.upper).all())

    @cached_property
    def equality_map(self):
        """The equalities as one map; raises ValueError on a malformed
        row."""
        return EqualityMap(self.equalities, self.n)

    @property
    def linear_rows(self):
        """``(C, d)`` with ``C x = d`` equivalent to the equalities
        (read-only), or None when any row is nonlinear."""
        return self.equality_map.linear_rows

    def equality_values(self, x):
        return self.equality_map.values(np.asarray(x, dtype=float))

    def equality_jacobian(self, x):
        return self.equality_map.jacobian(np.asarray(x, dtype=float))

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
class BlockSpec(_ViewsOnFirstRead):
    """One block: dimension, objective f_t, set X_t, coupling matrix A_t.

    Derived forms of the data are computed on first use and kept, so the
    fields must not be reassigned once the block is in use.  A loaded block
    holds A_t as a view on its loader's stack until A_t is first read.
    """

    n: int
    objective: Quadratic
    set: ConstraintSet
    coupling: sp.csr_matrix

    def __post_init__(self):
        if not (isinstance(self.coupling, sp.csr_matrix)
                and self.coupling.dtype == float):
            self.coupling = sp.csr_matrix(self.coupling, dtype=float)

    @classmethod
    def _of_view(cls, n, objective, cset, coupling):
        """The block whose A_t is the matrix of the :class:`_StackBlock`
        ``coupling``, a float CSR matrix built on first read."""
        blk = cls.__new__(cls)
        blk.n, blk.objective, blk.set = n, objective, cset
        blk._views = {"coupling": coupling}
        return blk


def _block_diag(mats):
    """diag(M_1, ..., M_T) of CSR matrices, in CSR, each block's entries
    kept in their order (so its products sum as the block's own do)."""
    nnz = [int(M.indptr[-1]) for M in mats]
    nnz0 = [0, *accumulate(nnz)]
    col0 = [0, *accumulate(M.shape[1] for M in mats)]
    indptr = np.concatenate(
        [[0]] + [M.indptr[1:] + k for M, k in zip(mats, nnz0)])
    indices = np.concatenate(
        [M.indices[:k] + c for M, k, c in zip(mats, nnz, col0)])
    data = np.concatenate([M.data[:k] for M, k in zip(mats, nnz)])
    return sp.csr_matrix((data, indices, indptr),
                         shape=(len(indptr) - 1, col0[-1]))


class QuadraticGroup:
    """Blocks of one size n held as dense stacks, so that their subproblems
    are solved together.  ``kind`` names how:

    - ``exact``: blocks with no bounds and no equalities, by one exact
      Newton step;
    - ``box``: blocks with a box and no equalities, by projected Newton;
    - ``qp``: blocks whose equalities are the same linear rows C x = d_t
      (r >= 1), with any box, by the active-set QP;
    - ``alm``: blocks whose equalities are one nonlinear map up to its
      right-hand side, c(x) - d_t (the same :attr:`EqualityMap.structure`),
      with any box, by the inner ALM.

    ``blocks`` are the block indices, ``cols`` their coordinates in the flat
    vector (block after block), Q (k, n, n) and AtA = A_t'A_t (k, n, n) the
    stacked data, and ``lower`` and ``upper`` (k, n) the bounds.  The kinds
    with equalities also hold ``equality_map``, the first block's map, and
    the right-hand sides ``d`` (k, r); a ``qp`` group holds its rows ``C``.
    """

    def __init__(self, problem, kind, blocks, Q, AtA):
        self.kind = kind
        self.blocks = blocks
        self.n = Q.shape[-1]
        self.cols = np.flatnonzero(np.isin(problem.block_index, blocks))
        self.Q = Q
        self.AtA = AtA
        self.lower = self.take(problem.lower)
        self.upper = self.take(problem.upper)
        if kind in ("qp", "alm"):
            self.equality_map = problem.blocks[blocks[0]].set.equality_map
            self.d = np.stack([problem.blocks[t].set.equality_map.d
                               for t in blocks])
        if kind == "qp":
            self.C = self.equality_map.C
        self._hessian = (None, None)
        self._factor = (None, None)

    def take(self, vec):
        """The group's rows of the flat vector ``vec``, as (k, n)."""
        return vec[self.cols].reshape(len(self.blocks), self.n)

    def hessian(self, w):
        """The stack H = Q + w AtA, kept for the latest ``w`` only."""
        key, H = self._hessian
        if key != w:
            H = self.Q + w * self.AtA
            self._hessian = (w, H)
        return H

    def hessian_factor(self, w):
        """``(H, H_inv, ok)`` for the stack H = Q + w AtA, kept for the
        latest ``w`` only (a change of rho + tau_x refactors).  ``ok`` is
        false where H is not finite and positive definite; H_inv holds the
        identity there."""
        key, factor = self._factor
        if key != w:
            H = self.hessian(w)
            eye = np.eye(self.n)
            ok = np.isfinite(H).all(axis=(1, 2))
            ok &= _cholesky(np.where(ok[:, None, None], H, eye))[1]
            safe = np.where(ok[:, None, None], H, eye)
            factor = (H, np.linalg.inv(safe), ok)
            self._factor = (w, factor)
        return factor


def _cholesky(H):
    """``(L, ok)`` for the stack H (k, n, n): the lower Cholesky factors,
    and whether each matrix is positive definite (its factorization
    succeeds; a matrix with a NaN can pass, with a NaN factor).  One
    batched factorization serves the stack unless some matrix fails it,
    and then each matrix is factored alone; L holds the identity where
    ``ok`` is false."""
    try:
        return np.linalg.cholesky(H), np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.eye(H.shape[-1])[None], np.zeros(1, dtype=bool)
    L, ok = zip(*(_cholesky(h[None]) for h in H))
    return np.concatenate(L), np.concatenate(ok)


def _diagonal_stack(mat, row_block, row_slot, col_slot, pos, shape):
    """The diagonal blocks of the block-diagonal CSR ``mat`` as a dense
    (k, p, q) stack: the entry (i, j) of block t goes to
    ``[pos[t], row_slot[i], col_slot[j]]`` when pos[t] >= 0 (repeated
    entries are summed, as ``toarray`` sums them)."""
    coo = mat.tocoo()
    t = row_block[coo.row]
    keep = pos[t] >= 0
    flat = np.ravel_multi_index((pos[t][keep], row_slot[coo.row[keep]],
                                 col_slot[coo.col[keep]]), shape)
    return np.bincount(flat, weights=coo.data[keep],
                       minlength=int(np.prod(shape))).reshape(shape)


class CouplingRows(NamedTuple):
    """The nonzero rows of A_1, ..., A_T, block after block, in CSR over
    the flat vector (``K``, each A_t's entries in their order, and its
    transpose ``KT``), with the coupling ``row`` and ``block`` of each."""

    K: sp.csr_matrix
    KT: sp.csr_matrix
    row: np.ndarray
    block: np.ndarray


def _coupling_rows(diag, m):
    """The :class:`CouplingRows` of diag(A_1, ..., A_T) in CSR, each A_t
    with m rows: the rows of ``diag`` that hold an entry."""
    keep = np.flatnonzero(np.diff(diag.indptr))
    K = sp.csr_matrix((diag.data, diag.indices,
                       diag.indptr[np.r_[0, keep + 1]]),
                      shape=(len(keep), diag.shape[1]))
    return CouplingRows(K, K.T.tocsr(), keep % m, keep // m)


@dataclass
class Problem:
    """T-block problem coupled through ``sum_t A_t x_t = b``.

    Iterates are flat vectors of length N = sum_t n_t, block after block
    (``offsets``); ``split`` gives their per-block views.  The
    coupling is kept in one stacked form, ``coupling_rows``: the nonzero
    rows of every A_t, block after block, as one CSR matrix K with the
    coupling row and the block of each row (:class:`CouplingRows`), which
    :func:`load_problem` supplies and a hand-built problem makes on first
    use.  One product with K gives every A_t x_t on those rows
    (``block_products``); ``row_sums`` adds them into Ax in block order, as
    a loop over the blocks adds it, and one product with K' gives every
    A_t'v_t (``block_products_T``).  The cost of each is linear in the
    nonzeros of the A_t, whatever T and m.  The objectives are kept the
    same way, as diag(Q_1, ..., Q_T) (``objective_Q``, which
    :func:`load_problem` also supplies).  The blocks must not change once
    the problem is in use.
    """

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

    @cached_property
    def offsets(self):
        """Where each block starts in the flat vector, then N."""
        return [0, *accumulate(self.dims)]

    def split(self, vec):
        """The list of per-block views of the flat vector ``vec``."""
        o = self.offsets
        return [vec[a:b] for a, b in zip(o, o[1:])]

    @cached_property
    def lower(self):
        """The lower bounds of all blocks, as one flat vector."""
        return np.concatenate([blk.set.lower for blk in self.blocks])

    @cached_property
    def upper(self):
        """The upper bounds of all blocks, as one flat vector."""
        return np.concatenate([blk.set.upper for blk in self.blocks])

    @cached_property
    def coupling_rows(self):
        """The rows of diag(A_1, ..., A_T) that hold an entry."""
        return _coupling_rows(
            _block_diag([blk.coupling for blk in self.blocks]), self.m)

    @cached_property
    def block_index(self):
        """The block of each coordinate of the flat vector."""
        return np.repeat(np.arange(self.T), self.dims)

    def block_products(self, vec):
        """K vec: every A_t x_t, for the flat vector ``vec``, on the rows
        of ``coupling_rows``."""
        return self.coupling_rows.K @ vec

    def block_products_T(self, v):
        """K'v: the flat vector of every A_t'v_t, with v_t block t's part
        of ``v``, a vector on the rows of ``coupling_rows``."""
        return self.coupling_rows.KT @ v

    def row_sums(self, v):
        """The m-vector of the values ``v`` on the rows of
        ``coupling_rows`` added up per coupling row, in block order, as a
        loop over the blocks adds them: Ax for v = K vec."""
        return np.bincount(self.coupling_rows.row, weights=v,
                           minlength=self.m)

    @cached_property
    def quadratic_groups(self):
        """The blocks solved together: :class:`QuadraticGroup` objects that
        hold every block exactly once, in the order of their first blocks:
        one group per kind, block size n and equality structure.  The
        stacks are ``objective_stack`` and the products of
        ``coupling_stack``."""
        bounded = np.bincount(
            self.block_index, minlength=self.T,
            weights=np.isfinite(self.lower) | np.isfinite(self.upper))
        by_key = {}
        for t, blk in enumerate(self.blocks):
            if not blk.set.equalities:
                key = ("box" if bounded[t] else "exact", blk.n)
            else:
                emap = blk.set.equality_map
                key = ("alm" if emap.linear_rows is None else "qp", blk.n,
                       emap.structure)
            by_key.setdefault(key, []).append(t)
        groups = []
        for (kind, *_), ts in by_key.items():
            At = self.coupling_stack(ts)
            groups.append(QuadraticGroup(self, kind, ts,
                                         self.objective_stack(ts),
                                         np.swapaxes(At, 1, 2) @ At))
        return groups

    @cached_property
    def local_index(self):
        """The place of each coordinate of the flat vector in its block."""
        o = np.array(self.offsets)
        return np.arange(o[-1]) - o[self.block_index]

    def _stack_places(self, ts):
        pos = np.full(self.T, -1)
        pos[ts] = np.arange(len(ts))
        return pos

    def objective_stack(self, ts):
        """Q_t of the blocks ``ts``, all of one size n, as a dense
        (k, n, n) stack filled from ``objective_Q``."""
        n = self.dims[ts[0]]
        return _diagonal_stack(self.objective_Q, self.block_index,
                               self.local_index, self.local_index,
                               self._stack_places(ts), (len(ts), n, n))

    def coupling_stack(self, ts):
        """The nonzero rows of A_t of the blocks ``ts``, all of one size n,
        in their order, as a dense (k, r, n) stack filled from
        ``coupling_rows``: r is the most such rows of any of the blocks, and
        a block with fewer gets zero rows (which leave A_t'A_t and the
        singular values of A_t as they are)."""
        K, _, _, block = self.coupling_rows
        per_block = np.bincount(block, minlength=self.T)
        slot = np.arange(len(block)) - (np.cumsum(per_block)
                                        - per_block)[block]
        return _diagonal_stack(K, block, slot, self.local_index,
                               self._stack_places(ts),
                               (len(ts), int(max(per_block[ts])),
                                self.dims[ts[0]]))

    @cached_property
    def objective_Q(self):
        """diag(Q_1, ..., Q_T) in CSR, each Q_t's entries in their order."""
        return _block_diag([blk.objective.Q for blk in self.blocks])

    @cached_property
    def objective_c(self):
        """c_1, ..., c_T as one flat vector."""
        return np.concatenate([blk.objective.c for blk in self.blocks])

    def objective_products(self, vec):
        """diag(Q_1, ..., Q_T) vec: every Q_t x_t, for the flat vector
        ``vec``."""
        return self.objective_Q @ vec

    def objective_gradients(self, Qx):
        """The flat vector of every grad f_t(x_t), each block's equal bit
        for bit to its own ``Quadratic.gradient``, from ``Qx`` =
        ``objective_products(x)``."""
        return Qx + self.objective_c

    @cached_property
    def objective_c0(self):
        """The constants c0 of all blocks, summed."""
        return sum(blk.objective.c0 for blk in self.blocks)

    def objective_value(self, vec, Qx):
        """sum_t f_t(x_t) at the flat vector ``vec``, as one reduction, from
        ``Qx`` = ``objective_products(vec)``."""
        return float(vec @ (0.5 * Qx + self.objective_c)) + self.objective_c0


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
        if not np.isfinite([self.rho, self.theta, self.tau_x,
                            self.tau_z]).all():
            raise ValueError("penalty parameters and proximal weights must "
                             "be finite")


@dataclass
class IterateState:
    """Mutable iterate (x, z, lambda) plus the lagged quantities; x and
    x_prev are flat vectors of length N (``Problem.split`` gives their
    blocks).

    At k = 0 the conventions are ``dz = -(lam + theta z) / tau_z`` and
    ``x_prev = x`` so that the first x-differences vanish.

    ``alm`` holds, for each ``alm`` group of ``Problem.quadratic_groups``
    in group order, the pair ``(y, sigma)`` of stacks (k, r) and (k,) that
    the group's inner ALM starts from in the next sweep; it is empty before
    the first sweep, which starts every group cold.

    ``Ax`` = sum_t A_t x_t (m,), ``Qx`` = ``Problem.objective_products``
    (N,) and ``Kdx`` = ``Problem.block_products(x - x_prev)`` are the
    products of the iterate, written with ``x`` by ``jacobi.init_state``
    and ``jacobi.advance``, the only functions that write ``x``; the sweep,
    the Lyapunov value and the residuals read them.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    x_prev: np.ndarray
    z_prev: np.ndarray
    lam_prev: np.ndarray
    dz: np.ndarray
    Ax: np.ndarray
    Qx: np.ndarray
    Kdx: np.ndarray
    k: int = 0
    alm: list = field(default_factory=list)

    def copy(self):
        return IterateState(
            x=self.x.copy(),
            z=self.z.copy(),
            lam=self.lam.copy(),
            x_prev=self.x_prev.copy(),
            z_prev=self.z_prev.copy(),
            lam_prev=self.lam_prev.copy(),
            dz=self.dz.copy(),
            Ax=self.Ax.copy(),
            Qx=self.Qx.copy(),
            Kdx=self.Kdx.copy(),
            k=self.k,
            alm=[(y.copy(), sigma.copy()) for y, sigma in self.alm],
        )


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors


def validate_problem(problem):
    """Check dimensions, bound ordering, the equality rows and full row rank
    of the coupling.

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
        shape = blk._peek("coupling").shape
        if shape != (problem.m, blk.n):
            rep.errors.append(
                f"block {t}: coupling shape {shape} != ({problem.m}, {blk.n})")
        if blk.set.n != blk.n:
            rep.errors.append(
                f"block {t}: bounds length {blk.set.n} != n={blk.n}")
        if blk.objective.n != blk.n:
            rep.errors.append(
                f"block {t}: objective dimension {blk.objective.n} != n={blk.n}")
        if not blk.set.equalities:
            continue
        try:
            blk.set.equality_map  # built once here; building checks the rows
        except ValueError as exc:
            rep.errors.append(f"block {t}: {exc}")
        if not blk.set.all_bounds_finite:
            rep.warnings.append(
                f"block {t}: equality constraints with unbounded box; "
                "compactness of the block set cannot be verified")
    if rep.errors:
        return rep
    for t, what in _nonfinite_data(problem):
        rep.errors.append(f"block {t}: {what} holds a value that is not finite")
    if not np.isfinite(problem.b).all():
        rep.errors.append("b holds a value that is not finite")
    if rep.errors:
        return rep
    rank = coupling_rank(_coupling_entries(problem))
    if rank < problem.m:
        rep.errors.append(
            f"coupling matrix rank-deficient: rank {rank} < m={problem.m}")
    return rep


def _nonfinite_data(problem):
    """``(t, "objective")`` and ``(t, "coupling")`` for each block t whose
    objective or coupling holds a value that is not finite, in block order,
    read off the stacked forms."""
    def bad_rows(mat):
        bad = np.flatnonzero(~np.isfinite(mat.data))
        return np.searchsorted(mat.indptr, bad, side="right") - 1

    c0 = np.array([blk.objective.c0 for blk in problem.blocks])
    objective = np.concatenate([
        problem.block_index[bad_rows(problem.objective_Q)],
        problem.block_index[~np.isfinite(problem.objective_c)],
        np.flatnonzero(~np.isfinite(c0))])
    coupling = problem.coupling_rows.block[bad_rows(problem.coupling_rows.K)]
    found = [(int(t), "objective") for t in np.unique(objective)]
    found += [(int(t), "coupling") for t in np.unique(coupling)]
    return sorted(found, key=lambda item: item[0])


def _coupling_entries(problem):
    """[A_1 ... A_T] (m x N) as a COO matrix: the entries of
    ``coupling_rows``' K, each in its coupling row."""
    K, _, row, _ = problem.coupling_rows
    return sp.coo_matrix(
        (K.data, (np.repeat(row, np.diff(K.indptr)), K.indices)),
        shape=(problem.m, K.shape[1]))


def coupling_rank(A):
    """Numerical rank of the sparse matrix A, read through its COO entries,
    by one dense pivoted QR per connected component of its rows
    (:func:`row_components`): A is block diagonal up to permutations, and
    its rank is the sum of the components' ranks.  One scale serves every
    component: a pivot counts when it exceeds RANK_DROP_TOL times the
    largest first pivot over all of them."""
    A = sp.coo_matrix(A)
    m, N = A.shape
    comp = row_components(A)
    count = int(comp.max()) + 1 if m else 0
    if count <= 1:
        parts = [A.toarray()]
    else:
        row, col = A.row, A.col
        # the rows and then the used columns of each component, numbered
        # from 0; the unused columns make one more group, ``count``
        label = np.concatenate([comp, np.full(N, count)])
        label[m + col] = comp[row]
        groups = np.bincount(label, minlength=count + 1)
        order = np.argsort(label, kind="stable")
        slot = np.empty(m + N, dtype=int)
        slot[order] = np.arange(m + N) - (np.cumsum(groups)
                                          - groups)[label[order]]
        rows = np.bincount(comp, minlength=count)
        cols = groups[:count] - rows
        size = rows * cols
        base = np.cumsum(size) - size
        c = comp[row]
        dense = np.bincount(
            base[c] + slot[row] * cols[c] + slot[m + col] - rows[c],
            weights=A.data, minlength=int(size.sum()))
        parts = [dense[base[k]:base[k] + size[k]].reshape(rows[k], cols[k])
                 for k in np.flatnonzero(size)]
    pivots = []
    for part in parts:
        if part.size:
            R = qr(part.T if part.shape[0] > part.shape[1] else part,
                   pivoting=True, mode="r")[0]
            pivots.append(np.abs(np.diag(R)))
    largest = max((p[0] for p in pivots), default=0.0)
    if largest <= 0:
        return 0
    return int(sum(np.sum(p > RANK_DROP_TOL * largest) for p in pivots))


def row_components(A):
    """The connected component of each row of the sparse matrix A, read
    through its COO entries, two rows being linked when they share a
    column, numbered from 0 in the order of their first rows.  The rows and
    columns are the nodes of a forest (``parent``), an entry of A joins its
    row and column; each round hooks the larger root of every entry whose
    ends sit in different trees under the least such root it meets, then
    points every node at its root."""
    A = sp.coo_matrix(A)
    m, N = A.shape
    u = A.row
    v = m + A.col
    parent = np.arange(m + N)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            return np.unique(parent[:m], return_inverse=True)[1]
        np.minimum.at(parent, np.maximum(pu, pv)[split],
                      np.minimum(pu, pv)[split])
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]


def _field(doc, key, path, convert):
    """``convert(doc[key])``, with a TypeError or ValueError raised by the
    conversion turned into a :class:`SchemaError` naming ``path``."""
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, f"malformed value ({exc})") from exc


def _integer(value, path):
    """``value`` as an int: an integer, or a float with no fractional part
    (not a bool, not a string); raises a :class:`SchemaError` naming
    ``path`` otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise SchemaError(path, "malformed value (expected an integer, got "
                                f"{value!r})")
    return value.__index__()


def _vector(value):
    vec = np.asarray(value, dtype=float)
    if vec.ndim != 1:
        raise ValueError("expected a list of numbers")
    return vec


# What json.loads makes a bool or a string that spells a number (one with a
# digit): float() and np.asarray(..., dtype=float) take either for a number
# without complaint.  The strings "inf", "-inf" and "nan" spell none; they
# keep their meaning, and the finiteness checks name them where a value
# must be finite.  Each pattern is one literal search of the text.
_NON_NUMBER_SIGNS = [re.compile(p) for p in ("true", "false",
                                              r'"\s*[-+]?\.?\d')]
_SPELLED_NUMBER = re.compile(r"\s*[-+]?\.?\d")


def _refuse_non_numbers(value, path=""):
    """Raise a SchemaError naming the first field of the parsed document
    ``value`` (named ``path``) that holds a bool or a string that spells a
    number.  A list of numbers is named by its field, an object in a list
    by its index."""
    if isinstance(value, dict):
        for key, v in value.items():
            _refuse_non_numbers(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _refuse_non_numbers(v, f"{path}[{i}]" if isinstance(v, dict)
                                else path)
    elif isinstance(value, bool) or (isinstance(value, str)
                                     and _SPELLED_NUMBER.match(value)):
        raise SchemaError(path, "malformed value (expected a number, got "
                                f"{value!r})")


def _bounds_from_json(doc, n, path):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object with 'lower' and 'upper'")
    out = []
    for key in ("lower", "upper"):
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing required field")
        vals = _field(doc, key, f"{path}.{key}",
                      lambda v: [float(x) for x in v])
        if len(vals) != n:
            raise SchemaError(f"{path}.{key}", f"length {len(vals)} != n={n}")
        out.append(np.array(vals))
    return out


def _finite(values):
    if not np.isfinite(values).all():
        raise ValueError("value is not finite")


def _not_nan(values):
    if np.isnan(values).any():
        raise ValueError("bound is NaN")


def _finite_matrix(mat):
    """Convert the ``(triplets, shape)`` matrix; raises ValueError when that
    fails or a value of the matrix is not finite."""
    _finite(triplets_to_csr(*mat).data)


def _check_each(met):
    """Check the ``(path, check, value)`` items one by one, in their order;
    raises a SchemaError naming the first whose ``check(value)`` fails."""
    for path, check, value in met:
        try:
            check(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(path, str(exc)) from exc


def _stack(mats):
    """diag(M_1, ..., M_k) of the ``(triplets, shape)`` matrices ``mats``,
    converted together (:func:`_triplet_diag`), and the
    :class:`_StackBlock` view of each M_t on it."""
    shapes = np.array([s for _, s in mats], dtype=int).reshape(-1, 2)
    diag = _triplet_diag([trips for trips, _ in mats], shapes)
    starts = np.cumsum(shapes, axis=0) - shapes
    return diag, [_StackBlock(diag, r, c, (p, q)) for (r, c), (p, q)
                  in zip(starts.tolist(), shapes.tolist())]


def _flat(vectors):
    return np.concatenate(vectors) if vectors else np.empty(0)


def _is_quadratic(doc):
    return isinstance(doc, dict) and doc.get("type") == "quadratic"


def load_problem(text):
    """Parse a JSON problem document into a :class:`Problem`.

    Deterministic: identical text yields an identical in-memory problem;
    repeated matrix triplets are summed.  The blocks are checked one by one
    for their structure.  Then the triplets of every objective Q_t are
    converted together into diag(Q_1, ..., Q_T), those of every quadratic
    equality's Q into one more stack, and those of every A_t into
    diag(A_1, ..., A_T); each stack's values, and the c, c0, b and bounds
    of the document, are checked at once for values that are not finite
    (a bound may be infinite, but not NaN).  The problem keeps the stack
    of Q_t as ``objective_Q`` and the nonzero rows of the stack of A_t as
    ``coupling_rows``.  Each block's Q_t and A_t, and each equality's Q, is
    a view on its stack, built as a CSR matrix when it is first read.
    Errors name the first fault in document order, except that a bool or a
    string that spells a number, which no field holds, is named before any
    other fault (the text is searched for one first, and the document is
    walked only when the search hits).

    The cyclic garbage collector is paused meanwhile: the parsed document
    is a great many lists that hold no cycles, and the collections their
    allocation would trigger only traverse them again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _problem_from_text(text)
    finally:
        if enabled:
            gc.enable()


def _problem_from_text(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}", f"JSON parse error: {exc.msg}")
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected an object")
    for key in ("m", "b", "blocks"):
        if key not in doc:
            raise SchemaError(key, "missing required field")
    if any(sign.search(text) for sign in _NON_NUMBER_SIGNS):
        _refuse_non_numbers(doc)
    m = _integer(doc["m"], "m")
    b = _field(doc, "b", "b", _vector)
    _check_each([("b", _finite, b)])
    if not isinstance(doc["blocks"], list):
        raise SchemaError("blocks", "expected a list of blocks")
    parsed = []
    # the (triplets, shape) of each objective Q_t, quadratic equality Q and
    # A_t, in document order
    objective_mats, equality_mats, coupling_mats = [], [], []
    # each quadratic equality as (its block's list, its place there, c, c0)
    equality_slots = []
    # (path, check, value) of each item the checks of the blocks meet, in
    # their order: checking them one by one names the first fault
    met = []
    try:
        for t, bdoc in enumerate(doc["blocks"]):
            path = f"blocks[{t}]"
            if not isinstance(bdoc, dict):
                raise SchemaError(path, "expected an object")
            for key in ("n", "objective", "bounds", "A"):
                if key not in bdoc:
                    raise SchemaError(f"{path}.{key}",
                                      "missing required field")
            n = _integer(bdoc["n"], f"{path}.n")
            opath = f"{path}.objective"
            odoc = bdoc["objective"]
            if not _is_quadratic(odoc):
                function_from_json(odoc, opath)
                raise SchemaError(f"{opath}.type",
                                  "an objective must be quadratic")
            c, c0 = _quadratic_fields(odoc, opath)
            objective_mats.append((odoc["Q"], (len(c), len(c))))
            met += [(f"{opath}.c", _finite, c), (f"{opath}.c0", _finite, c0),
                    (f"{opath}.Q", _finite_matrix, objective_mats[-1])]
            lower, upper = _bounds_from_json(bdoc["bounds"], n,
                                             f"{path}.bounds")
            met += [(f"{path}.bounds.lower", _not_nan, lower),
                    (f"{path}.bounds.upper", _not_nan, upper)]
            eqs = []
            for j, edoc in enumerate(bdoc.get("equalities", [])):
                epath = f"{path}.equalities[{j}]"
                if not _is_quadratic(edoc):
                    eqs.append(function_from_json(edoc, epath))
                    continue
                ec, ec0 = _quadratic_fields(edoc, epath)
                equality_mats.append((edoc["Q"], (len(ec), len(ec))))
                equality_slots.append((eqs, j, ec, ec0))
                eqs.append(None)  # the function, once its Q is converted
                met += [(f"{epath}.c", _finite, ec),
                        (f"{epath}.c0", _finite, ec0),
                        (f"{epath}.Q", _finite_matrix, equality_mats[-1])]
            coupling_mats.append((bdoc["A"], (m, n)))
            met.append((f"{path}.A", _finite_matrix, coupling_mats[-1]))
            try:
                cset = ConstraintSet(lower, upper, eqs)
            except ValueError as exc:
                raise SchemaError(f"{path}.bounds", str(exc)) from exc
            parsed.append((n, c, c0, cset))
    except (TypeError, ValueError):
        _check_each(met)
        raise
    try:
        Q, Q_views = _stack(objective_mats)
        E, E_views = _stack(equality_mats)
        A, A_views = _stack(coupling_mats)
    except (TypeError, ValueError):
        _check_each(met)
        raise
    objective_c = _flat([c for _, c, _, _ in parsed])
    lower = _flat([cset.lower for *_, cset in parsed])
    upper = _flat([cset.upper for *_, cset in parsed])
    values = [Q.data, E.data, A.data, objective_c,
              [c0 for _, _, c0, _ in parsed],
              [ec0 for *_, ec0 in equality_slots],
              *(ec for _, _, ec, _ in equality_slots)]
    if (not np.isfinite(np.concatenate(values)).all()
            or np.isnan(lower).any() or np.isnan(upper).any()):
        _check_each(met)  # raises, naming the first such value
    symmetric = _is_symmetric(Q)
    blocks = []
    for (n, c, c0, cset), Q_t, A_t in zip(parsed, Q_views, A_views):
        objective = Quadratic._of_view(Q_t, c, c0, symmetric)
        blocks.append(BlockSpec._of_view(n, objective, cset, A_t))
    symmetric_eqs = _is_symmetric(E)
    for (eqs, j, ec, ec0), E_j in zip(equality_slots, E_views):
        eqs[j] = Quadratic._of_view(E_j, ec, ec0, symmetric_eqs)
    problem = Problem(m=m, b=b, blocks=blocks)
    problem.coupling_rows = _coupling_rows(A, m)
    problem.objective_c = objective_c
    problem.lower, problem.upper = lower, upper
    if symmetric and all(len(c) == n for n, c, _, _ in parsed):
        problem.objective_Q = Q
    return problem


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
        objective = blk.objective.padded(m)
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
