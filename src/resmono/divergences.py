"""Renyi divergence family: sandwiched, Petz, Umegaki, max-divergence.

Values are floats in bits; +inf is returned (never raised) when the support
conditions of the piecewise definitions fail,

    sandwiched finite iff (alpha < 1 and rho not orthogonal to sigma)
                          or supp(rho) <= supp(sigma).

At alpha = 1/2 the sandwiched divergence is -log2 (Tr|sqrt rho sqrt sigma|)^2
(the plain root-fidelity, without the subnormalized deficit term). The
generic spectral formula evaluates it, with the support rule of every order
below 1.

sandwiched, umegaki, dmax and rel_entropy_variance decide classical versus
quantum themselves: when both arguments are distributions (qmat.is_classical),
they return the classical fast path below, which is the same divergence of the
diagonal embeddings. The exception is a sigma with an eigenvalue under mass of
rho at the spectral clip floor qmat.KERNEL_TOL (alpha < 1) or at most
qmat.SUPPORT_RTOL times its largest (alpha > 1): the quantum path treats that
eigenvalue as kernel and the classical path keeps it, so the two can differ
(the strict xfails of test_divergences_near_the_support_tolerance). A
distribution paired with a matrix is embedded on the diagonal.
"""

from __future__ import annotations

import contextlib
import math
import sys

import numpy as np

from . import qmat
from .errors import AlphaOutOfRange, DimensionMismatch, SupportViolation
from .qmat import asmat, eigh, hermitize, mpow

ALPHA_ONE_WINDOW = 1e-6  # |alpha - 1| below this dispatches to umegaki
OVERLAP_TOL = 1e-12
# For entries of p and q in (0, 1], the one factor of p^alpha q^(1-alpha) that
# can exceed 1 is at most 2^(1074 g), g = -alpha or alpha - 1. While
# |alpha - 1/2| <= POW_SAFE_RADIUS it stays below max_float / (e * maxsize), so
# neither a term nor a sum of as many terms as an array can hold overflows.
POW_SAFE_RADIUS = 0.5 + ((math.log(sys.float_info.max) - math.log(sys.maxsize) - 1.0)
                         / -math.log(math.ulp(0.0)))


def _mass(rho: np.ndarray, sigma: np.ndarray, on_support: bool) -> float:
    """Mass of rho inside supp(sigma) (zero means orthogonal), or outside it."""
    w, u = eigh(sigma)
    keep = qmat.support_mask(w)
    if not on_support:
        keep = ~keep
    if not keep.any():
        return 0.0
    uk = u[:, keep]
    return float(np.trace(uk.conj().T @ rho @ uk).real)


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """rho and sigma as matrices, rejected unless their shapes agree."""
    r, s = asmat(rho), asmat(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"rho has shape {r.shape} but sigma has shape {s.shape}")
    return r, s


def sandwiched(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence log2 Tr(s^((1-a)/2a) r s^((1-a)/2a))^a / (a-1).

    alpha = 1 dispatches to the Umegaki relative entropy, alpha = inf to the
    max-divergence.
    """
    if not alpha >= 0.5:
        raise AlphaOutOfRange(f"sandwiched divergence needs alpha >= 1/2, got {alpha}")
    if qmat.is_classical(rho) and qmat.is_classical(sigma):
        return classical_renyi(rho, sigma, alpha)
    r, s = _pair(rho, sigma)
    if math.isinf(alpha):
        return dmax(r, s)
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return umegaki(r, s)
    if alpha > 1.0 and _mass(r, s, on_support=False) > OVERLAP_TOL:
        return math.inf
    if alpha < 1.0 and _mass(r, s, on_support=True) <= OVERLAP_TOL:
        return math.inf
    a = mpow(s, (1.0 - alpha) / (2.0 * alpha))
    w = qmat.spectral_clip(np.linalg.eigvalsh(hermitize(a @ r @ a)))
    return float(_renyi_of_spectra(w[None], alpha)[0])


def _renyi_of_spectra(w: np.ndarray, alpha: float) -> np.ndarray:
    """log2(sum w^alpha) / (alpha - 1) for each row of an (S, n) stack of
    clipped spectra: the sandwiched divergence read from the spectrum of
    sigma^c rho sigma^c, c = (1 - alpha) / 2 alpha.

    A row whose plain sum is not in (0, inf), because its powers under- or
    overflow at a huge order, is resummed in the log domain; an all-zero row
    gives +inf.
    """
    with np.errstate(over="ignore", divide="ignore"):
        s = (w ** alpha).sum(axis=-1)
        out = np.log2(s) / (alpha - 1.0)
    redo = np.flatnonzero(~((s > 0.0) & (s < math.inf)))
    if redo.size:
        out[redo] = math.inf
        redo = redo[(w[redo] > 0.0).any(axis=-1)]
        out[redo] = _renyi_log_domain(w[redo], np.ones_like(w[redo]), alpha)
    return out


def petz(rho, sigma, alpha: float) -> float:
    """Petz Renyi divergence log2 Tr[rho^a sigma^(1-a)] / (a - 1)."""
    r, s = _pair(rho, sigma)
    if not (0.0 < alpha <= 2.0) or abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
            return umegaki(r, s)
        raise AlphaOutOfRange(f"Petz divergence needs alpha in (0,1)U(1,2], got {alpha}")
    if alpha > 1.0 and _mass(r, s, on_support=False) > OVERLAP_TOL:
        return math.inf
    if alpha < 1.0 and _mass(r, s, on_support=True) <= OVERLAP_TOL:
        return math.inf
    q = float(np.trace(mpow(r, alpha) @ mpow(s, 1.0 - alpha)).real)
    if q <= 0.0:
        return math.inf
    return float(np.log2(q)) / (alpha - 1.0)


def umegaki(rho, sigma) -> float:
    """Umegaki relative entropy Tr rho (log2 rho - log2 sigma), +inf off support."""
    if qmat.is_classical(rho) and qmat.is_classical(sigma):
        return classical_kl(rho, sigma)
    r, s = _pair(rho, sigma)
    if _mass(r, s, on_support=False) > OVERLAP_TOL:
        return math.inf
    wr, ur = eigh(r)
    wr = np.clip(wr, 0.0, None)
    pos = wr > qmat.KERNEL_TOL
    term1 = float((wr[pos] * np.log2(wr[pos])).sum())
    ws, us = eigh(s)
    keep = qmat.support_mask(ws)
    diag = np.einsum("ij,jk,ki->i", us.conj().T, r, us).real
    term2 = float((np.log2(ws[keep]) * diag[keep]).sum())
    return term1 - term2


def dmax(rho, sigma) -> float:
    """Max-divergence inf{lam : rho <= 2^lam sigma} in bits."""
    if qmat.is_classical(rho) and qmat.is_classical(sigma):
        return classical_renyi(rho, sigma, math.inf)
    r, s = _pair(rho, sigma)
    if _mass(r, s, on_support=False) > OVERLAP_TOL:
        return math.inf
    x = mpow(s, -0.5)
    w = np.linalg.eigvalsh(hermitize(x @ r @ x))
    lam = float(w[-1])
    if lam <= 0.0:
        return -math.inf
    return float(np.log2(lam))


def q_alpha(rho, sigma, alpha: float) -> float:
    """Q_alpha = 2^((alpha-1) D_alpha), in [0, 1] for alpha in [1/2, 1)."""
    if not 0.5 <= alpha < 1.0:
        raise AlphaOutOfRange(f"q_alpha needs alpha in [1/2, 1), got {alpha}")
    d = sandwiched(rho, sigma, alpha)
    if math.isinf(d):
        return 0.0
    return float(2.0 ** ((alpha - 1.0) * d))


def rel_entropy_variance(rho, sigma) -> float:
    """V = Tr[rho (log2 rho - log2 sigma)^2] - D(rho||sigma)^2, in bits^2."""
    if qmat.is_classical(rho) and qmat.is_classical(sigma):
        return classical_rel_entropy_variance(rho, sigma)
    r, s = asmat(rho), asmat(sigma)
    if _mass(r, s, on_support=False) > OVERLAP_TOL:
        raise SupportViolation("supp(rho) not contained in supp(sigma)")
    ell = qmat.plog2m(r) - qmat.plog2m(s)
    d = umegaki(r, s)
    return float(np.trace(r @ ell @ ell).real) - d * d


# ---------------------------------------------------------------------------
# classical fast paths
# ---------------------------------------------------------------------------

def _classical_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as float vectors, rejected unless both are 1-d of one length."""
    pv, qv = qmat.probs(p), qmat.probs(q)
    if pv.shape != qv.shape:
        raise DimensionMismatch(f"dims {pv.shape} vs {qv.shape}")
    return pv, qv


def _off_support(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The entries where p puts more than OVERLAP_TOL and q is 0: a
    divergence of order >= 1 from p to q is +inf if there is one."""
    return (p > OVERLAP_TOL) & (q <= 0)


def classical_renyi(p, q, alpha: float) -> float:
    """Classical Renyi divergence, matching sandwiched on diagonal embeddings."""
    return float(classical_renyi_orders(p, q)([alpha])[0])


def classical_renyi_orders(p, q):
    """The function alphas -> [classical_renyi(p, q, a) for a in alphas], as
    an array, bit for bit. The pair is checked, its masks built and its
    support tested once, here; each call takes the power sums of all its
    finite orders away from 1 in one numpy pass. That pass raises to an array
    of exponents, elementwise, where numpy takes x ** e for a scalar e of -1,
    1/2 or 2 as 1/x, sqrt(x) or x * x: such orders are redone as scalars.
    """
    pv, qv = _classical_pair(p, q)
    off = bool(_off_support(pv, qv).any())
    mask = (pv > 0) & (qv > 0)   # for alpha > 1, mass below tolerance on ker(q) is dropped
    pm, qm = pv[mask], qv[mask]

    def at(alphas) -> np.ndarray:
        alphas = np.asarray(alphas, dtype=float)
        out, run = np.empty(alphas.shape), []
        for i, a in enumerate(alphas.tolist()):
            if not a > -math.inf:
                raise AlphaOutOfRange(f"classical Renyi divergence needs a real order or +inf, got {a}")
            if off and a > 1.0:
                out[i] = math.inf
            elif a == math.inf:     # as dmax of the diagonal embeddings
                out[i] = float(np.max(_log2_ratio(pm, qm))) if pm.size else -math.inf
            elif abs(a - 1.0) < ALPHA_ONE_WINDOW:
                out[i] = classical_kl(pv, qv)
            else:
                run.append(i)
        a = alphas[run]
        orders = a.tolist()
        far = any(abs(x - 0.5) > POW_SAFE_RADIUS for x in orders)
        # far out a power may leave the float range: resummed in the log domain below
        with np.errstate(over="ignore", invalid="ignore") if far else contextlib.nullcontext():
            t = pm ** a[:, None] * qm ** (1.0 - a)[:, None]
            for j, x in enumerate(orders):
                if x in (-1.0, 0.5, 2.0) or 1.0 - x in (-1.0, 0.5, 2.0):
                    t[j] = pm ** x * qm ** (1.0 - x)
        s = t.sum(axis=1)
        bad = [j for j, v in enumerate(s.tolist()) if not 0.0 < v < math.inf]
        if bad:
            s[bad] = 1.0            # no log2 warning; these orders are redone below
        out[run] = np.log2(s) / (a - 1.0)
        for j in bad:               # a power under- or overflowed, or no mass is common
            out[run[j]] = (_renyi_log_domain(pm, qm, orders[j]) if pm.size
                           else math.inf if orders[j] < 1.0 else -math.inf)
        return out

    return at


def classical_renyi_rows(p, q, alpha: float) -> np.ndarray:
    """classical_renyi(p[r], q[r], alpha) for every row r of p and q, which
    broadcast to one (n, d) shape.

    The rules are classical_renyi's (and classical_kl's near alpha = 1):
    the same support rule, and the same log-domain resum for a row whose
    powers under- or overflow. An entry where p or q is 0 contributes 0 to
    its row's sum instead of being dropped, so rows of fewer than 8 entries
    sum in the scalar's order.
    """
    if math.isnan(alpha) or alpha == -math.inf:
        raise AlphaOutOfRange(f"classical Renyi divergence needs a real order or +inf, got {alpha}")
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    both = (p > 0) & (q > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if math.isinf(alpha) or abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
            ratio = p / q
            lr = np.log2(ratio)
            over = both & np.isinf(ratio)     # p / q left the float range (a subnormal q)
            if over.any():
                lr = np.where(over, np.log2(p) - np.log2(q), lr)
            if math.isinf(alpha):
                out = _by_row(np.maximum, np.where(both, lr, -math.inf))
            else:
                out = _by_row(np.add, np.where(both, p * lr, 0.0))
        else:
            s = _by_row(np.add, np.where(both, p ** alpha * q ** (1.0 - alpha), 0.0))
            out = np.log2(s) / (alpha - 1.0)
            redo = np.flatnonzero(~((s > 0.0) & (s < math.inf)))
            redo = redo[both[redo].any(axis=-1)]
            if redo.size:
                out[redo] = _renyi_log_domain(*(x[redo] for x in np.broadcast_arrays(p, q)), alpha)
    if alpha > 1.0 or abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        off = _off_support(p, q)
        if off.any():
            out[_by_row(np.logical_or, off)] = math.inf
    return out


def _by_row(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc reduced over the rows of an (n, d) array, one column at a time:
    numpy's own reduction over rows this short costs about ten times more.
    A sum of fewer than 8 entries comes out in the order of numpy's."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out


def _renyi_log_domain(p: np.ndarray, q: np.ndarray, alpha: float):
    """log2(sum p^alpha q^(1-alpha)) / (alpha - 1), at an |alpha| so large
    that the terms under- or overflow: a float for vectors, an array for the
    rows of (n, d) arrays. An entry where p or q is 0 adds nothing.

    With k = alpha - 1 and u = (alpha / k) log2 p - log2 q, each term is 2^(k u),
    so the value is u* + log2(sum 2^(k (u - u*))) / k, where u* is the max of u
    for k > 0 and the min for k < 0: every exponent is <= 0 and the sum is in [1, n].
    An entry where p or q is 0 takes u = -inf for k > 0 and +inf for k < 0, so
    it is never u* and its term is 0.
    """
    k = alpha - 1.0
    # log2 0 and 0 * log2 0 are masked; k (u - u*) may round to -inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.where((p > 0.0) & (q > 0.0), (alpha / k) * np.log2(p) - np.log2(q),
                     -math.inf if k > 0.0 else math.inf)
        top = u.max(axis=-1, keepdims=True) if k > 0.0 else u.min(axis=-1, keepdims=True)
        out = top + np.log2(np.exp2(k * (u - top)).sum(axis=-1, keepdims=True)) / k
    return float(out[0]) if out.ndim == 1 else out[:, 0]


def _log2_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log2(p / q) for arrays of positive entries, and log2 p - log2 q where
    p / q leaves the float range (a subnormal q). Two reductions settle the
    common case, in which no quotient can overflow, without np.errstate."""
    if float(np.max(p, initial=0.0)) / float(np.min(q, initial=math.inf)) < math.inf:
        return np.log2(p / q)
    with np.errstate(over="ignore"):
        r = p / q
    return np.where(np.isinf(r), np.log2(p) - np.log2(q), np.log2(r))


def classical_kl(p, q) -> float:
    pv, qv = _classical_pair(p, q)
    if np.any(_off_support(pv, qv)):
        return math.inf
    mask = (pv > 0) & (qv > 0)
    return float((pv[mask] * _log2_ratio(pv[mask], qv[mask])).sum())


def classical_rel_entropy_variance(p, q) -> float:
    pv, qv = _classical_pair(p, q)
    if np.any(_off_support(pv, qv)):
        raise SupportViolation("supp(p) not contained in supp(q)")
    mask = (pv > 0) & (qv > 0)
    llr = _log2_ratio(pv[mask], qv[mask])
    d = float((pv[mask] * llr).sum())
    return float((pv[mask] * llr ** 2).sum()) - d * d


def shannon_entropy(p) -> float:
    pv = qmat.probs(p)
    pv = pv[pv > 0]
    return float(-(pv * np.log2(pv)).sum())
