"""Explicit hard-to-transform state pairs and region characterizations.

A hard pair orders the relative-entropy monotone one way while reversing the
fidelity monotone: D(rho) >= D(rho') together with F(rho) > F(rho'). The
builders realize the three published families (athermal qutrit via the
embedding channel, pure bipartite Schmidt vectors, block-coherent states) and
report the realized parameters after integer rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import divergences as dv
from . import qmat
from .errors import (DimensionMismatch, DimensionOverflow, InfeasibleRounding,
                     InputError, InvalidGibbs, NotRational, SupportViolation)
from .qmat import ClassicalDist, DensityOperator

EMBED_DIM_CAP = 10 ** 6
CMP_TOL = 1e-12
# region names by code: the first of FO, CO, RED, CCO that holds, else OUTSIDE
REGION_LABELS = np.array(["FO", "CO_only", "RED", "CCO_only", "OUTSIDE"])


@dataclass
class HardPairReport:
    rho: object
    rho_prime: object
    theory_kind: str
    d_gap: float                 # D(rho) - D(rho') in bits
    fid_gap: float               # sqrt(F)(rho) - sqrt(F)(rho')
    conditions_met: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_hard(self) -> bool:
        return bool(self.conditions_met["relent_ordered"]
                    and self.conditions_met["fidelity_reversed"])


@dataclass
class RegionGrid:
    points: np.ndarray
    labels: np.ndarray
    d_bits: np.ndarray
    f_value: np.ndarray
    alpha_grid: np.ndarray
    red_margin: np.ndarray
    nesting_violations: int
    oracle_disagreements: int | None    # None without a rational gamma
    counts: dict
    fo_mask: np.ndarray
    co_mask: np.ndarray
    cco_mask: np.ndarray


# ---------------------------------------------------------------------------
# embedding channel
# ---------------------------------------------------------------------------

def embedding_blocks(gamma) -> tuple[int, list[int]]:
    """Common denominator D and block sizes D_i for a rational Gibbs vector."""
    fracs = []
    for g in gamma:
        if not isinstance(g, Fraction):
            raise NotRational(f"Gibbs entries must be fractions, got {type(g).__name__}")
        fracs.append(g)
    if sum(fracs) != 1:
        raise NotRational("Gibbs vector must sum to exactly 1")
    den = 1
    for g in fracs:
        den = den * g.denominator // math.gcd(den, g.denominator)
    if den > EMBED_DIM_CAP:
        raise DimensionOverflow(f"common denominator {den} exceeds {EMBED_DIM_CAP}")
    blocks = [int(g * den) for g in fracs]
    return den, blocks


def embedding_channel(p, gamma) -> ClassicalDist:
    """Map p to the D-dimensional block-uniform distribution p_hat.

    Block i holds D_i copies of p_i / D_i; the Gibbs vector itself maps to the
    uniform distribution, and all classical Renyi divergences to the reference
    are preserved.
    """
    pv = qmat.probs(p)
    den, blocks = embedding_blocks(gamma)
    if len(blocks) != pv.shape[0]:
        raise DimensionOverflow("state and Gibbs vector dimensions differ")
    out = np.concatenate([np.full(b, pv[i] / b) for i, b in enumerate(blocks)])
    return ClassicalDist(out)


# ---------------------------------------------------------------------------
# hard pairs
# ---------------------------------------------------------------------------

def _classical_sqrt_f(p: np.ndarray, g: np.ndarray) -> float:
    return float(np.sqrt(p * g).sum())


def build_athermal_qutrit_pair(big_d: int, eps_param: float) -> HardPairReport:
    """Three-level athermal pair with Gibbs weights (D1/D, D2/D, 1/D).

    The top level carries mass mu = eps' + 1/log2(D-1); after embedding, rho
    is near-uniform over D-1 slots plus the mu slot, while rho' is uniform on
    the last n2 = (D-1)^(1-eps') slots.
    """
    if not 0.0 <= eps_param <= 1.0:
        raise InputError(f"eps_param must lie in [0, 1], got {eps_param}")
    if big_d < 100:
        raise InfeasibleRounding("need D >= 100")
    target = (big_d - 1) ** (1.0 - eps_param)
    n2 = int(round(target))
    if n2 < 2 or n2 > big_d - 1 or abs(n2 - target) > 0.01 * target:
        raise InfeasibleRounding(f"no integer block count near {target:.3f}")
    log_dm1 = math.log2(big_d - 1)
    eps_real = 1.0 - math.log2(n2) / log_dm1
    mu = eps_real + 1.0 / log_dm1
    d2 = n2 - 1
    d1 = big_d - n2
    if d1 < 1 or d2 < 1:
        raise InfeasibleRounding("degenerate block sizes")
    gamma = np.array([d1, d2, 1.0]) / big_d
    p = np.array([(1.0 - mu) * d1 / (big_d - 1), (1.0 - mu) * d2 / (big_d - 1), mu])
    pp = np.array([0.0, d2 / n2, 1.0 / n2])

    d_rho = dv.classical_kl(p, gamma)
    d_rhop = dv.classical_kl(pp, gamma)
    sf_rho = _classical_sqrt_f(p, gamma)
    sf_rhop = _classical_sqrt_f(pp, gamma)
    return HardPairReport(
        rho=ClassicalDist(p), rho_prime=ClassicalDist(pp), theory_kind="athermality",
        d_gap=d_rho - d_rhop, fid_gap=sf_rho - sf_rhop,
        conditions_met={
            "relent_ordered": d_rho >= d_rhop - CMP_TOL,
            "fidelity_reversed": sf_rho > sf_rhop,
        },
        diagnostics={
            "gibbs": gamma, "D": big_d, "n2": n2, "eps_requested": eps_param,
            "eps_realized": eps_real, "mu": mu,
            "F_rho": sf_rho ** 2, "F_rho_prime": sf_rhop ** 2,
            "F_rho_target": 1.0 - eps_param,
            "F_rho_prime_target": big_d ** (-eps_param),
        })


def build_entanglement_pair(d: int, kappa: float) -> HardPairReport:
    """Pure bipartite Schmidt-vector pair in local dimension d.

    lambda puts mass kappa on one coefficient and spreads the rest; lambda'
    is uniform on m ~ (d-1)^(1-kappa) coefficients. m is clamped to >= 2 so
    that rho' stays entangled (m = 1 would be a product state); the realized
    exponent is reported.
    """
    if d < 3 or not 0.0 < kappa < 1.0:
        raise InfeasibleRounding("need d >= 3 and kappa in (0,1)")
    target = (d - 1) ** (1.0 - kappa)
    m = max(2, int(round(target)))
    if m > d:
        raise InfeasibleRounding(f"slot count {m} exceeds dimension {d}")
    lam = np.array([(1.0 - kappa) / (d - 1)] * (d - 1) + [kappa])
    lamp = np.array([0.0] * (d - m) + [1.0 / m] * m)
    h_lam = dv.shannon_entropy(lam)
    h_lamp = dv.shannon_entropy(lamp)
    sf = math.sqrt(lam.max())
    sfp = math.sqrt(lamp.max())
    return HardPairReport(
        rho=ClassicalDist(lam), rho_prime=ClassicalDist(lamp), theory_kind="entanglement",
        d_gap=h_lam - h_lamp, fid_gap=sf - sfp,
        conditions_met={
            "relent_ordered": h_lam >= h_lamp - CMP_TOL,
            "fidelity_reversed": sf > sfp,
        },
        diagnostics={
            "m": m, "kappa_requested": kappa,
            "kappa_realized": 1.0 - math.log2(m) / math.log2(d - 1),
            "entropy": h_lam, "entropy_prime": h_lamp,
        })


def maximally_coherent_state(d: int) -> np.ndarray:
    v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


def build_coherence_pair(d: int, eps_param: float, mu: float) -> HardPairReport:
    """Block state mu (+) (1-mu)|Phi_(d-1)> vs the product |d1-1> (x) |Phi_d2>.

    Both monotones have closed forms here: D(rho) = (1-mu) log2(d-1),
    D(phi) = log2 d2, F(rho) = mu + (1-mu)/(d-1) and F(phi) = 1/d2.
    """
    if d < 2 or not 0.0 <= eps_param <= 1.0 or not 0.0 <= mu <= 1.0:
        raise InputError(f"the coherence pair needs d >= 2 and eps_param, mu in [0, 1], "
                         f"got d={d}, eps_param={eps_param}, mu={mu}")
    d1 = int(round(d ** (1.0 - eps_param)))
    d2 = int(round(d ** eps_param))
    if d1 < 1 or d2 < 2 or d1 * d2 > d:
        raise InfeasibleRounding(f"block split d1={d1}, d2={d2} infeasible in dimension {d}")
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = mu
    rho[1:, 1:] = (1.0 - mu) * maximally_coherent_state(d - 1)
    phi = np.zeros(d, dtype=complex)
    base = (d1 - 1) * d2
    phi[base:base + d2] = 1.0 / math.sqrt(d2)
    phi_op = np.outer(phi, phi.conj())

    d_rho = (1.0 - mu) * math.log2(d - 1)
    d_phi = math.log2(d2)
    f_rho = mu + (1.0 - mu) / (d - 1)
    f_phi = 1.0 / d2
    witness = (mu + (1.0 - mu) / math.sqrt(d - 1)) ** 2
    return HardPairReport(
        rho=DensityOperator(rho), rho_prime=DensityOperator(phi_op), theory_kind="coherence",
        d_gap=d_rho - d_phi, fid_gap=math.sqrt(f_rho) - math.sqrt(f_phi),
        conditions_met={
            "relent_ordered": d_rho >= d_phi - 1e-9,
            "fidelity_reversed": f_rho > f_phi,
        },
        diagnostics={
            "d1": d1, "d2": d2, "mu": mu,
            "D_rho": d_rho, "D_phi": d_phi,
            "F_rho": f_rho, "F_phi": f_phi, "F_rho_witness": witness,
        })


# ---------------------------------------------------------------------------
# qubit Bloch level set
# ---------------------------------------------------------------------------

def _qubit_d_bits(x, z, g0: float, g1: float):
    """D(rho(x,z) || diag(g0,g1)) in bits, vectorized over x, z."""
    r = np.sqrt(np.minimum(x * x + z * z, 1.0))
    ent = 0.0
    for w in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        mask = w > 0
        ent = ent - np.where(mask, w * np.log2(np.where(mask, w, 1.0)), 0.0)
    cross = (1.0 + z) / 2.0 * math.log2(g0) + (1.0 - z) / 2.0 * math.log2(g1)
    return -ent - cross


def _qubit_f(x, z, g0: float, g1: float):
    """F(rho(x,z), diag(g0,g1)) via Tr(rho gamma) + 2 sqrt(det rho det gamma)."""
    tr = g0 * (1.0 + z) / 2.0 + g1 * (1.0 - z) / 2.0
    det_rho = np.clip((1.0 - (x * x + z * z)) / 4.0, 0.0, None)
    return tr + 2.0 * np.sqrt(det_rho * g0 * g1)


def _qubit_rays(thetas, cz: float):
    """sin, cos and sphere distance r_max of the rays from (0, cz) at angles thetas.

    sin and cos come from libm one angle at a time, because np.sin may differ
    from it in the last bit; r_max solves ||(0, cz) + r u|| = 1.
    """
    sin = np.array([math.sin(t) for t in thetas])
    cos = np.array([math.cos(t) for t in thetas])
    cu = cz * cos
    return sin, cos, -cu + np.sqrt(cu * cu + 1.0 - cz * cz)


def _qubit_crossings(thetas, cz: float, g0: float, g1: float, d_target: float):
    """Points (x, z) where the rays at angles thetas cross D = d_target, and F there.

    One bisection over all rays at once: 80 halvings of [0, r_max], each
    moving a ray's hi to the midpoint wherever D >= d_target. A ray whose
    sphere endpoint reads below the level keeps hi = r_max, its endpoint.
    """
    sin, cos, hi = _qubit_rays(thetas, cz)
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        hit = _qubit_d_bits(mid * sin, cz + mid * cos, g0, g1) >= d_target
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    x, z = hi * sin, cz + hi * cos
    return x, z, _qubit_f(x, z, g0, g1)


def check_grid(grid_n: int):
    """Reject a grid size below 1, as classify_simplex_regions and the CLI's
    regions and sweep commands do."""
    if grid_n < 1:
        raise InputError(f"grid must be >= 1, got {grid_n}")


def bloch_level_set(gamma, d_target: float, theta_points: int = 720) -> HardPairReport:
    """The D = d_target level set of the x-z Bloch disk and its fidelity
    extremes, for gamma = diag(g0, g1).

    gamma with g0 >= g1 sits on the z axis at (0, g0 - g1),
    the unique interior point of every sublevel set, and D rises along every
    ray from it. The level set is sampled at theta_points ray angles over
    [theta0, pi], where theta0 is the ray whose sphere endpoint has
    D = d_target (a pure state on the level set). All rays are bisected at
    once, 80 halvings each. On [theta0, pi] every endpoint has D >= d_target,
    so a ray whose endpoint reads a few ulps below it takes the endpoint as
    its crossing. The largest and the smallest F are then refined by two
    golden-section searches of 60 steps that run in lockstep, one bisection
    of both probe rays per step, and the maximum is compared with the pure
    endpoint at theta0. The ray angles of the maximizer and the minimizer are
    the diagnostics theta_rho and theta_rho_prime; theta_bloch is the
    maximizer's Bloch polar angle.
    """
    g = np.asarray(qmat.asmat(gamma)).real
    if g.shape != (2, 2) or abs(g[0, 1]) > 1e-14 or abs(g[1, 0]) > 1e-14:
        raise InvalidGibbs("gamma must be a diagonal qubit state")
    g0, g1 = float(g[0, 0]), float(g[1, 1])
    if not (math.isfinite(g0) and math.isfinite(g1)):
        raise InvalidGibbs(f"gamma entries must be finite, got ({g0:g}, {g1:g})")
    if g0 <= 0 or g1 <= 0 or abs(g0 + g1 - 1.0) > qmat.TRACE_TOL:
        raise InvalidGibbs("gamma must be normalized with full rank")
    if g0 < g1:
        raise InvalidGibbs(f"gamma must put the larger weight first, got ({g0:g}, {g1:g})")
    d_max = -math.log2(g1)
    if not 0.0 < d_target < d_max:
        raise InputError(f"level must lie in (0, log2(1/gamma_min)) = (0, {d_max:.6g}), "
                         f"got {d_target:g}")
    if theta_points < 1:
        raise InputError(f"theta_points must be >= 1, got {theta_points}")

    cz = g0 - g1

    def crossings(thetas):
        return _qubit_crossings(thetas, cz, g0, g1, d_target)

    # the feasible directions form [theta0, pi]: bisect on the D of the
    # ray's sphere endpoint, which rises with the angle
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        sin, cos, rm = _qubit_rays([mid], cz)
        if _qubit_d_bits(rm * sin, cz + rm * cos, g0, g1)[0] >= d_target:
            hi = mid
        else:
            lo = mid
    theta0 = hi

    thetas = np.linspace(theta0, math.pi, theta_points)
    xs_l, zs_l, fs_l = crossings(thetas)
    level_set = list(zip(thetas.tolist(), xs_l.tolist(), zs_l.tolist(), fs_l.tolist()))

    # golden sections around the best samples: row 0 maximizes F, row 1 minimizes it
    sign = np.array([-1.0, 1.0])
    center = thetas[[np.argmax(fs_l), np.argmin(fs_l)]]
    span = (math.pi - theta0) / theta_points
    a = np.maximum(theta0, center - 2 * span)
    b = np.minimum(math.pi, center + 2 * span)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = b - golden * (b - a)
    c2 = a + golden * (b - a)
    f1 = sign * crossings(c1)[2]
    f2 = sign * crossings(c2)[2]
    for _ in range(60):
        left = f1 < f2      # keep [a, c2]; otherwise keep [c1, b]
        a = np.where(left, a, c1)
        b = np.where(left, c2, b)
        kept, f_kept = np.where(left, c1, c2), np.where(left, f1, f2)
        probe = np.where(left, b - golden * (b - a), a + golden * (b - a))
        f_probe = sign * crossings(probe)[2]
        c1, f1 = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        c2, f2 = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
    # the maximum can sit exactly at the pure endpoint theta0
    rays = np.append(0.5 * (a + b), theta0)
    x, z, f = crossings(rays)
    hi_at = 2 if f[2] > f[0] else 0
    f_hi, pt_hi = float(f[hi_at]), (float(x[hi_at]), float(z[hi_at]))
    f_lo, pt_lo = float(f[1]), (float(x[1]), float(z[1]))

    def as_state(pt):
        x, z = pt
        m = 0.5 * np.array([[1.0 + z, x], [x, 1.0 - z]], dtype=complex)
        return DensityOperator(m)

    rho_hi = as_state(pt_hi)
    rho_lo = as_state(pt_lo)
    theta_bloch = math.atan2(abs(pt_hi[0]), pt_hi[1])
    report = HardPairReport(
        rho=rho_hi, rho_prime=rho_lo, theory_kind="athermality",
        d_gap=0.0, fid_gap=math.sqrt(f_hi) - math.sqrt(f_lo),
        conditions_met={"relent_ordered": True, "fidelity_reversed": f_hi > f_lo},
        diagnostics={
            "theta_bloch": theta_bloch, "F_rho": f_hi, "F_rho_prime": f_lo,
            "F_gap": f_hi - f_lo, "rho_prime_diag": (float(rho_lo.data[0, 0].real),
                                                     float(rho_lo.data[1, 1].real)),
            "theta_rho": float(rays[hi_at]), "theta_rho_prime": float(rays[1]),
            "level_bits": d_target, "level_set": level_set,
        })
    return report


# ---------------------------------------------------------------------------
# thermomajorization
# ---------------------------------------------------------------------------

def thermomajorizes(p, p_prime, gamma) -> bool:
    """(p, gamma) thermomajorizes (p', gamma): the Lorenz curve of p dominates
    that of p'. It is _fo_mask's test on the single point p'."""
    pv, qv, gv = qmat.probs(p), qmat.probs(p_prime), qmat.probs(gamma)
    if np.min(gv) <= 0:
        raise SupportViolation("Gibbs vector must have full support")
    return bool(_fo_mask(pv, gv, qv[None, :])[0])


def _block_lorenz(v: np.ndarray, sizes: np.ndarray):
    """The Lorenz curves of the block-uniform embeddings of the rows of v
    (block i holds sizes[i] entries v_i / sizes[i]): the blocks in descending
    order of their entries, as start positions, sizes and entries."""
    order = np.argsort(-(v / sizes), axis=1, kind="stable")
    bs = sizes[order]
    return np.cumsum(bs, axis=1) - bs, bs, np.take_along_axis(v, order, axis=1) / bs


def _lorenz_at(curve, x):
    """The sum of the largest x[r] entries of row r of a _block_lorenz curve."""
    starts, bs, entry = curve
    return sum(np.clip(x - starts[:, k], 0.0, bs[:, k]) * entry[:, k]
               for k in range(starts.shape[1]))


def _simplex_points(grid_n: int) -> np.ndarray:
    """The points (a, b, n - a - b) / n of the 3-simplex, a + b <= n, in the
    row-major order of (a, b)."""
    ii, jj = np.meshgrid(np.arange(grid_n + 1), np.arange(grid_n + 1), indexing="ij")
    mask = ii + jj <= grid_n
    a = ii[mask]
    b = jj[mask]
    return np.column_stack([a, b, grid_n - a - b]).astype(float) / grid_n


def _fo_mask(pv: np.ndarray, gv: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """FO: the Lorenz curve of pv dominates that of each point at the point's
    breakpoints. Both curves are concave and piecewise linear, so between two
    breakpoints of a point's curve their difference is concave and least at
    an end: domination there is domination everywhere. Its n x d temporaries
    are freed on return."""
    order_p = np.argsort(-(pv / gv), kind="stable")
    xs_p = np.concatenate([[0.0], np.cumsum(gv[order_p])])
    ys_p = np.concatenate([[0.0], np.cumsum(pv[order_p])])
    order = np.argsort(-(np.where(pts > 0, pts, 0.0) / gv[None, :]), axis=1, kind="stable")
    g_sorted = np.take_along_axis(np.broadcast_to(gv, pts.shape), order, axis=1)
    p_sorted = np.take_along_axis(pts, order, axis=1)
    bx = np.cumsum(g_sorted, axis=1)
    by = np.cumsum(p_sorted, axis=1)
    cp_at = np.interp(bx.ravel(), xs_p, ys_p).reshape(bx.shape)
    return np.all(cp_at >= by - CMP_TOL, axis=1)


def default_alpha_grid(n: int = 64) -> np.ndarray:
    """n orders geometrically spaced over [1/2, 40], then 1 and infinity."""
    if n < 1:
        raise InputError(f"alpha points must be >= 1, got {n}")
    return np.concatenate([np.geomspace(0.5, 40.0, n), [1.0, math.inf]])


def classify_simplex_regions(p, gamma, grid_n: int, alpha_grid=None,
                             gamma_rational=None) -> RegionGrid:
    """Label the 3-simplex by reachability region relative to the input p.

    FO by thermomajorization; the closure of CO by the two one-parameter
    divergence orderings over the alpha grid; the closure of CCO by relative
    entropy ordering; RED marks CCO points where some alpha in [1/2, 1)
    reverses the ordering. The continuum condition is approximated by a finite
    grid: sound for rejection, grid-approximate for acceptance.

    The alpha grid is walked one alpha at a time: each step computes both
    divergence rows over all grid points and folds them into a running AND
    for CO and a running maximum for red_margin, keeping only the relative
    entropy row, so memory stays at a few rows of the grid.
    """
    pv, gv = qmat.probs(p), qmat.probs(gamma)
    if pv.shape != (3,) or gv.shape != (3,):
        raise DimensionMismatch(f"the 3-simplex needs p and gamma of 3 entries each, "
                                f"got shapes {pv.shape} and {gv.shape}")
    if not (np.all(pv >= 0.0) and abs(pv.sum() - 1.0) <= qmat.TRACE_TOL):
        raise InputError(f"p must be a distribution: entries >= 0 summing to 1 "
                         f"within {qmat.TRACE_TOL:g}, got {pv.tolist()}")
    if not (np.all(gv > 0.0) and abs(gv.sum() - 1.0) <= qmat.TRACE_TOL):
        raise InvalidGibbs(f"gamma must have entries > 0 summing to 1 within "
                           f"{qmat.TRACE_TOL:g}, got {gv.tolist()}")
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    kl_at = np.flatnonzero(np.abs(alpha_grid - 1.0) < 1e-9)
    if not kl_at.size or not np.any((alpha_grid >= 0.5) & (alpha_grid < 1.0)):
        raise InputError("alpha_grid must hold alpha = 1 and at least one alpha in [1/2, 1), "
                         f"got {alpha_grid.size} values")
    check_grid(grid_n)

    pts = _simplex_points(grid_n)

    fo = _fo_mask(pv, gv, pts)

    # CO: both orderings hold at every alpha; RED: the largest reversal of
    # the forward ordering over alpha in [1/2, 1)
    co = np.ones(len(pts), dtype=bool)
    red_margin = np.full(len(pts), -np.inf)
    kl_idx = int(kl_at[0])
    for i, al in enumerate(alpha_grid):
        d_pg = dv.classical_renyi_rows(pts, gv, al)
        ref_pg = dv.classical_renyi(pv, gv, al)
        co &= ((ref_pg >= d_pg - CMP_TOL)
               & (dv.classical_renyi(gv, pv, al) >= dv.classical_renyi_rows(gv, pts, al) - CMP_TOL))
        if 0.5 <= al < 1.0:
            red_margin = np.maximum(red_margin, d_pg - ref_pg)
        if i == kl_idx:
            d_bits, cco = d_pg, ref_pg >= d_pg - CMP_TOL

    red = cco & ~co & (red_margin > CMP_TOL)

    nesting = int(np.sum(fo & ~co) + np.sum(co & ~cco))

    code = np.full(len(pts), 4, dtype=np.int8)
    for k, mask in ((3, cco), (2, red), (1, co), (0, fo)):
        code[mask] = k
    labels = REGION_LABELS[code]

    oracle_dis = None
    if gamma_rational is not None:
        sizes = np.asarray(embedding_blocks(gamma_rational)[1], dtype=float)
        curve_p, curve_q = _block_lorenz(pv[None, :], sizes), _block_lorenz(pts, sizes)
        # both curves are linear between the kinks of either, so the kinks
        # and the end are the only positions to compare
        major = np.ones(len(pts), dtype=bool)
        for x in (*curve_p[0][0, 1:], *curve_q[0][:, 1:].T, sizes.sum()):
            major &= _lorenz_at(curve_p, x) >= _lorenz_at(curve_q, x) - CMP_TOL
        oracle_dis = int(np.sum(major != fo))

    counts = {"FO": int(fo.sum()), "CO": int(co.sum()), "CCO": int(cco.sum()),
              "RED": int(red.sum())}
    with np.errstate(divide="ignore", invalid="ignore"):
        f_vals = (np.sqrt(pts * gv[None, :]).sum(axis=1)) ** 2
    return RegionGrid(points=pts, labels=labels, d_bits=d_bits,
                      f_value=f_vals, alpha_grid=alpha_grid, red_margin=red_margin,
                      nesting_violations=nesting, oracle_disagreements=oracle_dis,
                      counts=counts, fo_mask=fo, co_mask=co, cco_mask=cco)
