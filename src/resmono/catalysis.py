"""Quantitative catalyst bounds and the block-catalyst construction.

The central bound: for a hard pair at order alpha in [1/2, 1) and any
eps-correlated catalytic transformation with catalyst nu,

    Q_alpha(nu) <= eps^alpha / (Q_alpha(rho) - Q_alpha(rho'))

which translates into D_alpha(nu) >= log2(min(1, bound)) / (alpha - 1), and
via D_max >= D >= D_alpha the same lower bound holds for the free energy and
the log-robustness of the catalyst. At alpha = 1/2 a tighter bound holds:
sqrt(F)(nu) <= eps / (sqrt(F)(rho) - sqrt(F)(rho')).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import divergences as dv
from . import monotones as mn
from . import qmat
from .errors import (AlphaOutOfRange, DegenerateVariance, DimensionOverflow,
                     HypothesisViolated, InputError, InvalidXi, NoFeasiblePoint,
                     SupportViolation, TheoryUnsupported)
from .qmat import ClassicalDist

DUAN_SIZE_CAP = 10 ** 4
LOG2E = float(np.log2(np.e))
EXPONENT_GRID = 200       # log-spaced deltas per axis; Nelder-Mead refines the best cell


# ---------------------------------------------------------------------------
# catalyst bounds
# ---------------------------------------------------------------------------

@dataclass
class CatalystBound:
    q_bound: float            # upper bound on Q_alpha(nu), clamped to <= 1
    d_alpha_nu_lb: float      # lower bound on D_alpha(nu), bits; it bounds D(nu) and the
                              # log-robustness of nu too, since D_max >= D >= D_alpha
    q_rho: float
    q_rho_prime: float
    clamped: bool


def _q_of(state, theory, alpha: float) -> float:
    d = mn.monotone_alpha(state, theory, alpha)
    if math.isinf(d):
        return 0.0
    return float(2.0 ** ((alpha - 1.0) * d))


def catalyst_q_bound(rho, rho_prime, theory, alpha: float, eps: float) -> CatalystBound:
    """Theorem-style bound on the catalyst at order alpha in [1/2, 1)."""
    if not 0.5 <= alpha < 1.0:
        raise AlphaOutOfRange(f"catalyst bound needs alpha in [1/2,1), got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q_rho = _q_of(rho, theory, alpha)
    q_rhop = _q_of(rho_prime, theory, alpha)
    gap = q_rho - q_rhop
    if gap <= 1e-15:
        raise HypothesisViolated(
            f"pair is not hard at alpha={alpha}: Q(rho)={q_rho:.6g} <= Q(rho')={q_rhop:.6g}")
    raw = eps ** alpha / gap
    q_bound = min(1.0, raw)
    lb = float(np.log2(q_bound)) / (alpha - 1.0)
    return CatalystBound(q_bound=q_bound, d_alpha_nu_lb=lb, q_rho=q_rho, q_rho_prime=q_rhop,
                         clamped=raw > 1.0)


@dataclass
class TightBound:
    sqrt_f_bound: float       # upper bound on sqrt(F)(nu), clamped to <= 1
    d_half_nu_lb: float       # -log2 F(nu) lower bound, bits
    q_bound_half: float       # the alpha = 1/2 general bound, for the ratio
    ratio: float


def catalyst_fidelity_bound_tight(rho, rho_prime, theory, eps: float) -> TightBound:
    """The tighter alpha = 1/2 bound sqrt(F)(nu) <= eps / fidelity gap."""
    sf_rho = _q_of(rho, theory, 0.5)
    sf_rhop = _q_of(rho_prime, theory, 0.5)
    gap = sf_rho - sf_rhop
    if gap <= 1e-15:
        raise HypothesisViolated("fidelity gap is not positive")
    bound = min(1.0, eps / gap)
    general = min(1.0, math.sqrt(eps) / gap)
    return TightBound(sqrt_f_bound=bound,
                      d_half_nu_lb=-2.0 * float(np.log2(bound)),
                      q_bound_half=general,
                      ratio=bound / general)


# ---------------------------------------------------------------------------
# error exponents
# ---------------------------------------------------------------------------

def error_exponent_first_order(rho1, sigma1, rho2, sigma2) -> float:
    """First-order exponent gap^2 log2(e) / (8 (V1 + V2)), bits per copy."""
    d1 = dv.umegaki(rho1, sigma1)
    d2 = dv.umegaki(rho2, sigma2)
    if math.isinf(d1) or math.isinf(d2):
        raise SupportViolation("relative entropies must be finite")
    gap = d1 - d2
    if gap <= 0.0:
        return 0.0
    v1 = dv.rel_entropy_variance(rho1, sigma1)
    v2 = dv.rel_entropy_variance(rho2, sigma2)
    if v1 + v2 < 1e-12:
        raise DegenerateVariance("V1 + V2 vanishes")
    return gap * gap * LOG2E / (8.0 * (v1 + v2))


@dataclass
class OptimizedExponent:
    gamma: float
    delta1: float
    delta2: float
    kappa: float


def _nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int):
    """(x, f) at the best vertex of a Nelder-Mead simplex run on func from x0.

    A port of scipy 1.17's scipy.optimize.minimize(method="Nelder-Mead")
    without bounds or adaptive coefficients: the same initial simplex (each
    coordinate in turn scaled by 1 + 0.05, or set to 0.00025 where it is 0),
    reflection 1, expansion 2, contraction and shrink 1/2, the same order of
    operations and the same stop test, and func gets a copy of each vertex.
    So it returns scipy's x and fun bit for bit, without the memory and
    start-up time of importing scipy.optimize.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(np.copy(v)) for v in sim], dtype=float)
    # sorted twice, as scipy does: argsort need not be stable, so ties may move
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    for _ in range(1, maxiter):
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = func(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # contract outside when the reflection beats the worst vertex,
            # inside otherwise; shrink toward the best when that fails too
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = func(np.copy(xc))
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = func(np.copy(xc))
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = func(np.copy(sim[j]))
            else:
                sim[-1], fsim[-1] = xc, fxc
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def error_exponent_optimized(rho1, sigma1, rho2, sigma2) -> OptimizedExponent:
    """Maximize kappa(d1, d2) / (1/d1 + 2/d2) over the admissible deltas.

    kappa = D_(1-d1)(rho1||sigma1) - D_(1+d2)(rho2||sigma2); log-spaced grid
    followed by Nelder-Mead refinement in log-delta coordinates.
    """
    deltas1 = np.geomspace(1e-6, 0.5, EXPONENT_GRID)
    deltas2 = np.geomspace(1e-6, 5.0, EXPONENT_GRID)
    d1_vals = np.array([dv.sandwiched(rho1, sigma1, 1.0 - d) for d in deltas1])
    d2_vals = np.array([dv.sandwiched(rho2, sigma2, 1.0 + d) for d in deltas2])
    kappa = d1_vals[:, None] - d2_vals[None, :]
    denom = 1.0 / deltas1[:, None] + 2.0 / deltas2[None, :]
    vals = np.where(kappa > 0.0, kappa / denom, -np.inf)
    if not np.isfinite(vals).any():
        raise NoFeasiblePoint("kappa <= 0 everywhere on the grid")
    i, j = np.unravel_index(np.argmax(vals), vals.shape)

    def neg(xy):
        da = min(max(math.exp(xy[0]), 1e-9), 0.5)
        db = min(max(math.exp(xy[1]), 1e-9), 5.0)
        k = dv.sandwiched(rho1, sigma1, 1.0 - da) - dv.sandwiched(rho2, sigma2, 1.0 + db)
        if k <= 0.0:
            return 0.0
        return -k / (1.0 / da + 2.0 / db)

    x, fun = _nelder_mead(neg, [math.log(deltas1[i]), math.log(deltas2[j])],
                          xatol=1e-9, fatol=1e-12, maxiter=2000)
    if -fun >= vals[i, j]:
        da = min(max(math.exp(x[0]), 1e-9), 0.5)
        db = min(max(math.exp(x[1]), 1e-9), 5.0)
        gamma = -fun
    else:
        da, db, gamma = deltas1[i], deltas2[j], vals[i, j]
    k = dv.sandwiched(rho1, sigma1, 1.0 - da) - dv.sandwiched(rho2, sigma2, 1.0 + db)
    return OptimizedExponent(gamma=float(gamma), delta1=float(da), delta2=float(db),
                             kappa=float(k))


# ---------------------------------------------------------------------------
# block catalyst
# ---------------------------------------------------------------------------

@dataclass
class CatalystBlocks:
    n: int
    rho: np.ndarray
    rho_prime: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    xi: list                    # xi[k] approximates rho'^(x k), k = 1..n
    nu_blocks: list             # nu block k-1 = rho^(k-1) (x) xi_(n-k)
    gamma_blocks: list
    nu: ClassicalDist           # concatenated block vector, weights 1/n

    @property
    def block_dims(self) -> list:
        return [b.shape[0] for b in self.nu_blocks]


@dataclass
class DuanReport:
    blocks: CatalystBlocks
    d_nu_gamma: float           # exact D(nu || gamma_C), bits
    free_energy_bound: float    # 2 n D(rho || eta)
    p_tau: float                # P(tau, rho' (x) nu)
    xi_eps0: float              # max_k P(xi_k, rho'^(x k))
    marginal_dev: float         # l1 deviation of the catalyst marginal of tau from nu


def _kron_power(v: np.ndarray, k: int) -> np.ndarray:
    return reduce(np.kron, [v] * k, np.array([1.0]))


def _dist(name: str, x, error=InputError) -> np.ndarray:
    """x as a float vector, refused by error unless it is a distribution; the
    entries are compared with 1 before the sum, which they could overflow."""
    v = qmat.probs(x)
    if not (v.min() >= -qmat.SUM_TOL and v.max() <= 1.0 + qmat.TRACE_TOL
            and abs(v.sum() - 1.0) <= qmat.TRACE_TOL):
        raise error(f"{name} must be a distribution: entries >= 0 summing to 1 "
                    f"within {qmat.TRACE_TOL:g}, got {v.tolist()}")
    return v


def duan_catalyst(rho, rho_prime, eta, eta_prime, n: int, xi_list=None) -> DuanReport:
    """Build the n-block catalyst nu = (1/n) sum_k rho^(k-1) (x) Xi_(n-k) (x) |k><k|.

    rho, rho', eta and eta' must be distributions. xi_list = [Xi_1, ..., Xi_n]
    supplies the intermediate states, Xi_k a distribution of dimension dim(rho')^k;
    None sets Xi_k = rho'^(x k), a zero-error surrogate for the asymptotic protocol's.
    Verifies the free-energy bound D(nu||gamma_C) <= 2n D(rho||eta) and the
    output error chain P(tau, rho' (x) nu) <= 2 eps0.
    """
    p, pp, e, ep = (_dist(name, x) for name, x in (("rho", rho), ("rho_prime", rho_prime),
                                                  ("eta", eta), ("eta_prime", eta_prime)))
    d, dp_ = p.shape[0], pp.shape[0]
    if n < 1:
        raise DimensionOverflow("need n >= 1")
    if max(d, dp_) ** n * n > DUAN_SIZE_CAP:
        raise DimensionOverflow(f"d^n * n exceeds {DUAN_SIZE_CAP}")

    if xi_list is None:
        xi = [_kron_power(pp, k) for k in range(1, n + 1)]
    else:
        if len(xi_list) != n:
            raise InvalidXi(f"need {n} supplied Xi states")
        xi = [_dist(f"Xi_{k}", x, InvalidXi) for k, x in enumerate(xi_list, start=1)]
        for k, x in enumerate(xi, start=1):
            if x.shape[0] != dp_ ** k:
                raise InvalidXi(f"Xi_{k} has dimension {x.shape[0]}, expected {dp_ ** k}")

    def xi_at(k):
        return np.array([1.0]) if k == 0 else xi[k - 1]

    nu_blocks = [np.kron(_kron_power(p, k - 1), xi_at(n - k)) for k in range(1, n + 1)]
    gamma_blocks = [np.kron(_kron_power(e, k - 1), _kron_power(ep, n - k))
                    for k in range(1, n + 1)]
    weights = [1.0 / n] * n
    nu_vec = np.concatenate([w * b for w, b in zip(weights, nu_blocks)])
    blocks = CatalystBlocks(n=n, rho=p, rho_prime=pp, eta=e, eta_prime=ep,
                            xi=xi, nu_blocks=nu_blocks, gamma_blocks=gamma_blocks,
                            nu=ClassicalDist(nu_vec))

    d_nu = sum(w * dv.classical_kl(a, b)
               for w, a, b in zip(weights, nu_blocks, gamma_blocks))
    bound = 2.0 * n * dv.classical_kl(p, e)

    tau_blocks = [np.kron(_kron_power(p, k - 1), xi_at(n - k + 1)) for k in range(1, n + 1)]
    ref_blocks = [np.kron(nb, pp) for nb in nu_blocks]   # rho' (x) nu, system last
    sqrt_f = float(sum(w * np.sqrt(a * b).sum()
                       for w, a, b in zip(weights, tau_blocks, ref_blocks)))
    p_tau = math.sqrt(max(0.0, 1.0 - min(sqrt_f, 1.0) ** 2))

    eps0 = 0.0
    for k in range(1, n + 1):
        target = _kron_power(pp, k)
        f_k = float(np.sqrt(xi_at(k) * target).sum()) ** 2
        eps0 = max(eps0, math.sqrt(max(0.0, 1.0 - min(f_k, 1.0))))

    marg_dev = 0.0
    for tb, nb in zip(tau_blocks, nu_blocks):
        marg = tb.reshape(nb.shape[0], dp_).sum(axis=1)
        marg_dev = max(marg_dev, float(np.abs(marg - nb).sum()))

    return DuanReport(blocks=blocks, d_nu_gamma=float(d_nu), free_energy_bound=float(bound),
                      p_tau=p_tau, xi_eps0=eps0, marginal_dev=marg_dev)


# ---------------------------------------------------------------------------
# the theta(log 1/eps) sandwich
# ---------------------------------------------------------------------------

@dataclass
class BoundCurve:
    eps_list: np.ndarray
    lower_bound_bits: np.ndarray
    upper_bound_bits: np.ndarray
    upper_envelope_bits: np.ndarray
    n_used: np.ndarray
    gamma_used: float
    alpha: float
    lower_slope: float          # least-squares slope of the unclamped lower curve
    lower_residual: float
    upper_slope: float          # slope of the continuous upper envelope
    slope_ratio: float          # upper / lower; the sandwich constants need not match
    clamped: np.ndarray


def scaling_curve(rho, rho_prime, theory, eps_list, alpha: float) -> BoundCurve:
    """Lower bound via the catalyst bound, upper via the block construction.

    The lower curve is affine in log2(1/eps) with slope alpha/(1-alpha)
    wherever the bound is not clamped at 1. The upper curve uses n(eps) =
    ceil(log2(1/eps) / gamma) blocks at cost 2 n D(rho||eta); its continuous
    envelope (without the ceiling) is reported alongside for slope checks.
    """
    if not isinstance(theory, mn.Athermality):
        raise TheoryUnsupported("the upper construction is athermality-specific")
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    bounds = [catalyst_q_bound(rho, rho_prime, theory, alpha, eps) for eps in eps_arr]
    lower = np.array([cb.d_alpha_nu_lb for cb in bounds])
    clamped = np.array([cb.clamped for cb in bounds], dtype=bool)

    exp = error_exponent_optimized(rho, theory.gibbs, rho_prime, theory.gibbs)
    d_rho_eta = dv.umegaki(rho, theory.gibbs)
    logs = np.log2(1.0 / eps_arr)
    n_used = np.ceil(logs / exp.gamma).astype(int)
    upper = 2.0 * n_used * d_rho_eta
    envelope = 2.0 * d_rho_eta * logs / exp.gamma

    free = ~clamped
    if free.sum() >= 2:
        coef = np.polyfit(logs[free], lower[free], 1)
        slope = float(coef[0])
        residual = float(np.max(np.abs(np.polyval(coef, logs[free]) - lower[free])))
    else:
        slope, residual = math.nan, math.nan

    if np.any(lower > upper + 1e-9):
        raise HypothesisViolated("lower bound exceeds the construction's upper bound")
    upper_slope = 2.0 * d_rho_eta / exp.gamma
    theory_slope = alpha / (1.0 - alpha)
    return BoundCurve(eps_list=eps_arr, lower_bound_bits=lower, upper_bound_bits=upper,
                      upper_envelope_bits=envelope, n_used=n_used, gamma_used=exp.gamma,
                      alpha=alpha, lower_slope=slope, lower_residual=residual,
                      upper_slope=upper_slope,
                      slope_ratio=upper_slope / theory_slope,
                      clamped=clamped)
