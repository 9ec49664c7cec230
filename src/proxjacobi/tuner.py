"""Adaptive parameter scheme wrapping the Jacobi iteration.

Starts from deliberately small penalty and proximal weights and adjusts
them from cheap per-iteration metrics: the proximal weight grows when the
Lyapunov value rises, the slack penalty grows when the penalty-formulation
residuals are tight but the true coupling residual is not, and the
augmented-Lagrangian penalty is driven up or down to balance the primal and
dual residual magnitudes.
"""

from dataclasses import dataclass, fields

from . import jacobi
from .jacobi import BlockSolveError, RunConfig
from .model import Params

TERMINATION_FEASIBLE = "feasible-stop"
TERMINATION_ITERATION_CAP = "iteration-cap"
TERMINATION_BLOCK_FAILURE = "block-failure"


@dataclass(frozen=True)
class TunerConfig:
    eps: float
    rho0: float = 1e-3
    omega: float = 32.0
    kappa_x: float = 2.0
    kappa_z: float = 1.0 / 32.0
    zeta: float = 1e-4
    Psi: int = 100
    nu_x: float = 2.0
    nu_rho: float = 2.0
    nu_theta: float = 10.0
    chi: float = 10.0
    max_outer: int = 10000

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        for name in ("rho0", "omega", "kappa_x", "kappa_z", "zeta", "Psi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("nu_x", "nu_rho", "nu_theta", "chi"):
            if getattr(self, name) <= 1:
                raise ValueError(f"{name} must exceed 1")


@dataclass
class TunerState:
    params: Params
    psi: int = 0


def init_params(cfg):
    """theta = eps^-2, rho = rho0, tau_x = kappa_x rho, tau_z = kappa_z rho."""
    params = Params(
        rho=cfg.rho0,
        theta=cfg.eps ** -2,
        tau_x=cfg.kappa_x * cfg.rho0,
        tau_z=cfg.kappa_z * cfg.rho0,
    )
    return params, TunerState(params=params)


def tune_step(state, metrics, T, cfg):
    """Apply the adaptation rules, in order, to the just-finished iteration.

    ``metrics`` is the iteration's trace record (its ``dphi`` compares the
    Lyapunov value under the parameters in force against the previous
    recorded value, without recomputation).  Returns ``(state, stop)``.
    """
    p = state.params
    rho, theta, tau_x, tau_z = p.rho, p.theta, p.tau_x, p.tau_z
    psi = state.psi

    if metrics.dphi > cfg.zeta * abs(metrics.phi):
        tau_x = min(cfg.nu_x * tau_x, (2 * T - 1) * rho)

    if (max(metrics.p_inf, metrics.d_inf) <= cfg.eps
            and metrics.coupling_inf > cfg.eps):
        theta = cfg.nu_theta * theta

    if metrics.p_inf > cfg.chi * metrics.d_inf and rho < cfg.omega * theta:
        rho = min(cfg.nu_rho * rho, cfg.omega * theta)
        tau_x = cfg.kappa_x * rho
        tau_z = cfg.kappa_z * rho
    elif metrics.d_inf > cfg.chi * metrics.p_inf and psi < cfg.Psi:
        rho = rho / cfg.nu_rho
        tau_x = cfg.kappa_x * rho
        tau_z = cfg.kappa_z * rho
        psi += 1

    stop = metrics.coupling_inf <= cfg.eps
    new_state = TunerState(
        params=Params(rho=rho, theta=theta, tau_x=tau_x, tau_z=tau_z),
        psi=psi)
    return new_state, stop


def run_adaptive(problem, cfg, init, run_config=None):
    """Alternate Jacobi iterations with the tuning rules until the coupling
    residual meets the tolerance or the outer-iteration cap is hit.

    ``init`` is an :class:`proxjacobi.model.IterateState` built by
    ``jacobi.init_state`` with the initial parameters (use
    :func:`make_initial_state`).  Returns ``(state, trace, reason)``; a
    block failure raises :class:`proxjacobi.jacobi.BlockSolveError` with the
    state and the partial trace attached, as ``jacobi.run_fixed`` does.
    """
    if run_config is None:
        run_config = RunConfig()
    params, tstate = init_params(cfg)
    state = init.copy()
    trace = []
    phi_prev = jacobi.initial_lyapunov(problem, state, params)
    with jacobi.worker_pool(run_config.workers) as pool:
        for _ in range(cfg.max_outer):
            try:
                rec = jacobi.iterate(problem, state, tstate.params,
                                     run_config, phi_prev=phi_prev, pool=pool)
            except BlockSolveError as exc:
                exc.state, exc.trace = state, trace
                raise
            trace.append(rec)
            phi_prev = rec.phi
            tstate, stop = tune_step(tstate, rec, problem.T, cfg)
            if stop:
                return state, trace, TERMINATION_FEASIBLE
    return state, trace, TERMINATION_ITERATION_CAP


def make_initial_state(problem, cfg, x0, z0, lam0):
    """Initial iterate under the tuner's starting parameters."""
    params, _ = init_params(cfg)
    return jacobi.init_state(problem, x0, z0, lam0, params)


_CONFIG_FIELDS = {f.name for f in fields(TunerConfig)}
_INT_FIELDS = {"Psi", "max_outer"}


def load_config(text, overrides=None):
    """Parse a flat ``key = value`` config file into a :class:`TunerConfig`.

    Lines starting with ``#`` and blank lines are ignored; ``overrides``
    (a dict) take precedence over file values.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = val.strip()
    out = {}
    for key, val in values.items():
        out[key] = int(val) if key in _INT_FIELDS else float(val)
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                out[key] = val
    return TunerConfig(**out)
