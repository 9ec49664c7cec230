"""Output checks made apart from the program.

Everything here reads the files a round leaves behind (problem JSON,
solution JSON, trace CSV) with plain JSON, CSV and NumPy; nothing imports
proxjacobi.  Each ``check_*`` returns a list of failure messages, empty when
the outputs are correct.
"""

import csv
import json

import numpy as np

# Tolerances sit about ten times above the differences seen on correct
# outputs (in brackets) and far below the perturbations the benchmark's test
# shows they reject (1e-3 in x, 1e-4 in a bus balance).
# qp-fixed: replay against the program [dx 5e-8, dlam/|lam| 3e-14, dphi/|phi|
# 5e-15].
QP_X_TOL = 1e-6
QP_ZLAM_RTOL = 1e-10
QP_PHI_RTOL = 1e-10
MONOTONE_RTOL = 1e-9
# dispatch: distance to the KKT optimum, which is of the order of eps
# [1e-6 at eps = 1e-6], and the block equalities [7e-16; a block left to
# the inner ALM fallback meets them to its tolerance of 1e-8].
DISPATCH_X_TOL = 1e-5
DISPATCH_BALANCE_TOL = 1e-7
# acopf: largest P or Q mismatch at any bus in any period [1e-9].
ACOPF_BALANCE_TOL = 1e-6
COUPLING_SLACK = 1e-9   # relative slack on coupling <= eps for summation order
BOUND_TOL = 0.0         # solvers project onto the box, so bounds hold exactly

QP_PASS_LINES = ("lyapunov monotonicity", "identity: lambda-z relation",
                 "identity: p equals dlam/rho",
                 "identity: z-update stationarity", "bound existence")


def _dense(triplets, shape):
    out = np.zeros(shape)
    if triplets:
        arr = np.asarray(triplets, dtype=float)
        np.add.at(out, (arr[:, 0].astype(int), arr[:, 1].astype(int)),
                  arr[:, 2])
    return out


def read_problem(path):
    """The problem file as dense per-block arrays."""
    with open(path) as fh:
        doc = json.load(fh)
    m = int(doc["m"])
    blocks = []
    for bd in doc["blocks"]:
        n = int(bd["n"])
        obj = bd["objective"]
        Q = _dense(obj["Q"], (n, n))
        blocks.append({
            "n": n,
            "Q": 0.5 * (Q + Q.T),
            "c": np.asarray(obj["c"], dtype=float),
            "c0": float(obj.get("c0", 0.0)),
            "lo": np.array([float(v) for v in bd["bounds"]["lower"]]),
            "hi": np.array([float(v) for v in bd["bounds"]["upper"]]),
            "A": _dense(bd["A"], (m, n)),
            "eqs": bd.get("equalities", []),
        })
    return {"m": m, "b": np.asarray(doc["b"], dtype=float), "blocks": blocks}


def read_solution(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["x"] = [np.asarray(xt, dtype=float) for xt in doc["x"]]
    doc["z"] = np.asarray(doc["z"], dtype=float)
    doc["lam"] = np.asarray(doc["lam"], dtype=float)
    return doc


def read_trace(path):
    """Trace rows as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def check_run(spec, measured):
    """Exit codes, the reproducibility of the solution across rounds and
    the trace-check verdicts."""
    fails = []
    rounds = measured["rounds"]
    if not rounds:
        return ["no round completed"]
    for i, r in enumerate(rounds):
        if r["solve_rc"] != spec["expect_rc"]:
            fails.append(f"round {i}: solve exit {r['solve_rc']}, "
                         f"expected {spec['expect_rc']}")
        if r["check_rc"] != 0:
            fails.append(f"round {i}: trace-check exit {r['check_rc']}")
        if "FAIL" in r["check_out"]:
            fails.append(f"round {i}: trace-check: {r['check_out'].strip()}")
    if len({r["solution_sha256"] for r in rounds}) != 1:
        fails.append("solution differs between rounds")
    if spec["fixed_params"]:
        text = rounds[-1]["check_out"]
        for name in QP_PASS_LINES:
            if f"PASS  {name}" not in text:
                fails.append(f"trace-check did not PASS {name!r}")
    return fails


def _termination(spec, sol, trace):
    fails = []
    if sol["termination"] != spec["expect_termination"]:
        fails.append(f"termination {sol['termination']!r}, expected "
                     f"{spec['expect_termination']!r}")
    if sol["iterations"] != len(trace):
        fails.append(f"{len(trace)} trace rows for {sol['iterations']} "
                     "iterations")
    return fails


def _feasible_stop(spec, prob, sol, trace):
    """Termination, coupling <= eps recomputed from x, and the boxes."""
    fails = _termination(spec, sol, trace)
    x, eps = sol["x"], spec["eps"]
    ax = sum(blk["A"] @ xt for blk, xt in zip(prob["blocks"], x))
    cpl = float(np.max(np.abs(ax - prob["b"]), initial=0.0))
    if cpl > eps * (1.0 + COUPLING_SLACK):
        fails.append(f"coupling {cpl:.3e} > eps {eps:g}")
    for t, (blk, xt) in enumerate(zip(prob["blocks"], x)):
        worst = max(float(np.max(blk["lo"] - xt, initial=0.0)),
                    float(np.max(xt - blk["hi"], initial=0.0)))
        if worst > BOUND_TOL:
            fails.append(f"block {t}: bound violated by {worst:.3e}")
    return fails


def _monotone(trace):
    fails = []
    for prev, row in zip(trace, trace[1:]):
        rise = row["phi"] - prev["phi"]
        if rise > MONOTONE_RTOL * (1.0 + abs(prev["phi"])):
            fails.append(f"phi rises by {rise:.3e} at k={int(row['k'])}")
    for row in trace:
        if row["dphi"] > MONOTONE_RTOL * (1.0 + abs(row["phi"])):
            fails.append(f"dphi = {row['dphi']:.3e} > 0 at k={int(row['k'])}")
    return fails


def replay_fixed(prob, eps, iters):
    """The fixed-parameter Jacobi iteration under the Theorem-1 parameters,
    with batched dense solves, from the program's start for unbounded
    blocks (x, z, lambda all zero).  Returns (x, z, lam, [phi_1..phi_K])."""
    blocks = prob["blocks"]
    if any(np.isfinite(blk["lo"]).any() or np.isfinite(blk["hi"]).any()
           for blk in blocks):
        raise ValueError("the replay covers unbounded blocks only")
    T, b = len(blocks), prob["b"]
    e2 = eps * eps
    rho, theta = 64.0 / e2, 1.0 / e2
    tau_x, tau_z = 256.0 * (T - 1) / e2, 2.0 / e2
    A = np.stack([blk["A"] for blk in blocks])            # (T, m, n)
    AtA = np.einsum("tmi,tmj->tij", A, A)
    Qs = np.stack([blk["Q"] for blk in blocks])
    H = Qs + (rho + tau_x) * AtA
    c = np.stack([blk["c"] for blk in blocks])
    c0 = sum(blk["c0"] for blk in blocks)
    x = np.zeros(c.shape)                                  # (T, n)
    z = np.zeros(prob["m"])
    lam = np.zeros(prob["m"])

    def objective(x):
        return float(0.5 * np.einsum("ti,tij,tj->", x, Qs, x)
                     + np.sum(c * x) + c0)

    phis = []
    for _ in range(iters):
        Axt = np.einsum("tmi,ti->tm", A, x)
        Ax = Axt.sum(axis=0)
        r_fix = Ax[None, :] - Axt + (z - b)[None, :]       # (T, m)
        rhs = (-c - np.einsum("tmi,m->ti", A, lam)
               - rho * np.einsum("tmi,tm->ti", A, r_fix)
               + tau_x * np.einsum("tij,tj->ti", AtA, x))
        x_new = np.linalg.solve(H, rhs[..., None])[..., 0]
        Ax_new = np.einsum("tmi,ti->m", A, x_new)
        z_new = (tau_z * z - rho * (Ax_new - b) - lam) / (tau_z + rho + theta)
        lam_new = lam + rho * (Ax_new + z_new - b)
        viol = Ax_new + z_new - b
        dAx = np.einsum("tmi,ti->tm", A, x_new - x)
        phis.append(objective(x_new) + 0.5 * theta * float(z_new @ z_new)
                    + float(lam_new @ viol) + 0.5 * rho * float(viol @ viol)
                    + 0.25 * tau_z * float((z_new - z) @ (z_new - z))
                    + 0.25 * tau_x * float(np.sum(dAx * dAx)))
        x, z, lam = x_new, z_new, lam_new
    return list(x), z, lam, phis


def check_qp_fixed(spec, prob, sol, trace, budget):
    eps = spec["eps"]
    fails = _termination(spec, sol, trace)
    if len(trace) != budget:
        fails.append(f"{len(trace)} trace rows, budget {budget}")
    fails += _monotone(trace)
    try:
        x, z, lam, phis = replay_fixed(prob, eps, budget)
    except ValueError as exc:
        return fails + [f"replay unavailable: {exc}"]
    dx = max(float(np.max(np.abs(a - b_))) for a, b_ in zip(x, sol["x"]))
    if dx > QP_X_TOL:
        fails.append(f"x differs from the replay by {dx:.3e}")
    for name, ref, got in (("z", z, sol["z"]), ("lambda", lam, sol["lam"])):
        diff = float(np.max(np.abs(ref - got)))
        if diff > QP_ZLAM_RTOL * (1.0 + float(np.max(np.abs(ref)))):
            fails.append(f"{name} differs from the replay by {diff:.3e}")
    for row, phi in zip(trace, phis):
        if abs(row["phi"] - phi) > QP_PHI_RTOL * (1.0 + abs(phi)):
            fails.append(f"phi at k={int(row['k'])} is {row['phi']!r}, "
                         f"replay gives {phi!r}")
    return fails


def _linear_rows(blk):
    """(coefficients, rhs) of the block's linear equalities."""
    rows = []
    for eq in blk["eqs"]:
        if eq["type"] != "quadratic" or eq["Q"]:
            raise ValueError("nonlinear equality in a dispatch block")
        coef = np.zeros(blk["n"])
        coef[:len(eq["c"])] = eq["c"]
        rows.append((coef, -float(eq.get("c0", 0.0))))
    return rows


def kkt_optimum(prob):
    """Dense KKT solve of the whole problem with equal-bound coordinates
    eliminated.  Raises when another bound is active at the solution, where
    this equality-constrained solve would not be the optimum."""
    blocks = prob["blocks"]
    N = sum(blk["n"] for blk in blocks)
    Q = np.zeros((N, N))
    c = np.zeros(N)
    rows, rhs = [], []
    off = 0
    for blk in blocks:
        sl = slice(off, off + blk["n"])
        Q[sl, sl] = blk["Q"]
        c[sl] = blk["c"]
        for coef, r in _linear_rows(blk):
            row = np.zeros(N)
            row[sl] = coef
            rows.append(row)
            rhs.append(r)
        off += blk["n"]
    C = np.vstack(rows + [np.hstack([blk["A"] for blk in blocks])])
    d = np.concatenate([rhs, prob["b"]])
    lo = np.concatenate([blk["lo"] for blk in blocks])
    hi = np.concatenate([blk["hi"] for blk in blocks])
    pinned = lo == hi
    free = ~pinned
    x = np.where(pinned, lo, 0.0)
    nf, r = int(free.sum()), C.shape[0]
    K = np.zeros((nf + r, nf + r))
    K[:nf, :nf] = Q[np.ix_(free, free)]
    K[:nf, nf:] = C[:, free].T
    K[nf:, :nf] = C[:, free]
    sol = np.linalg.solve(K, np.concatenate(
        [-(c[free] + Q[np.ix_(free, pinned)] @ x[pinned]),
         d - C[:, pinned] @ x[pinned]]))
    x[free] = sol[:nf]
    if np.any(x[free] <= lo[free]) or np.any(x[free] >= hi[free]):
        raise ValueError("a bound is active at the KKT point")
    out, off = [], 0
    for blk in blocks:
        out.append(x[off:off + blk["n"]])
        off += blk["n"]
    return out


def check_dispatch(spec, prob, sol, trace, budget):
    fails = _feasible_stop(spec, prob, sol, trace)
    x = sol["x"]
    for t, (blk, xt) in enumerate(zip(prob["blocks"], x)):
        for coef, r in _linear_rows(blk):
            gap = abs(float(coef @ xt) - r)
            if gap > DISPATCH_BALANCE_TOL:
                fails.append(f"period {t}: demand balance off by {gap:.3e}")
    try:
        x_star = kkt_optimum(prob)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return fails + [f"reference optimum unavailable: {exc}"]
    gap = max(float(np.max(np.abs(a - b_))) for a, b_ in zip(x, x_star))
    if gap > DISPATCH_X_TOL:
        fails.append(f"x is {gap:.3e} from the KKT optimum")
    return fails


def bus_mismatch(prob, x):
    """Largest |P| or |Q| balance residual over every bus and period, from
    complex power flows S_i = V_i conj((Y V)_i) with Y rebuilt from the
    admittances in the problem file."""
    worst = 0.0
    for blk, xt in zip(prob["blocks"], x):
        eqs = blk["eqs"]
        nb = int(eqs[0]["payload"]["nbus"])
        Y = np.zeros((nb, nb), dtype=complex)
        for eq in eqs[::2]:
            p = eq["payload"]
            i = int(p["bus"])
            Y[i, i] = complex(p["y_diag_re"], p["y_diag_im"])
            for j, gre, gim in zip(p["neighbors"], p["y_re"], p["y_im"]):
                Y[i, int(j)] = complex(gre, gim)
        p0 = eqs[0]["payload"]
        V = xt[p0["v_offset"]:p0["v_offset"] + nb]
        th = xt[p0["theta_offset"]:p0["theta_offset"] + nb]
        U = V * np.exp(1j * th)
        S = U * np.conj(Y @ U)
        for eq in eqs:
            p = eq["payload"]
            part = S[int(p["bus"])].real if eq["name"] == "acopf_re" \
                else S[int(p["bus"])].imag
            inj = sum(xt[int(g)] for g in p["gen_coords"])
            worst = max(worst, abs(inj - float(p["load"]) - part))
    return worst


def check_acopf(spec, prob, sol, trace, budget):
    fails = _feasible_stop(spec, prob, sol, trace)
    x = sol["x"]
    for t, (blk, xt) in enumerate(zip(prob["blocks"], x)):
        ref = blk["eqs"][0]["payload"]["theta_offset"]
        if xt[ref] != 0.0:
            fails.append(f"period {t}: reference angle {xt[ref]!r}")
    worst = bus_mismatch(prob, x)
    if worst > ACOPF_BALANCE_TOL:
        fails.append(f"bus balance off by {worst:.3e}")
    return fails


CHECKS = {"qp-fixed": check_qp_fixed, "dispatch": check_dispatch,
          "acopf": check_acopf}


def check_outputs(name, spec, workdir, budget):
    """Check the files a workload's last round wrote."""
    prob = read_problem(f"{workdir}/problem.json")
    sol = read_solution(f"{workdir}/solution.json")
    trace = read_trace(f"{workdir}/trace.csv")
    return CHECKS[name](spec, prob, sol, trace, budget)
