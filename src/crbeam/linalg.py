"""Complex Hermitian matrix primitives and scalar root finders.

Everything downstream treats these as given: a Hermitian-symmetry measure,
compact SVD with an explicit rank check, orthonormal null-space bases, and
the two scalar root finders used by the proximal steps.
"""

import numpy as np

RANK_TOL = 1e-10


class RankDeficientChannel(Exception):
    """Channel matrix does not have full column rank."""


class InvalidBracket(Exception):
    """Root bracket does not straddle a sign change."""


def hermitian_asymmetry(a):
    """Max-abs deviation from Hermitian symmetry, relative to ||A||_F."""
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return 0.0
    return np.max(np.abs(a - a.conj().T)) / scale


def compact_svd(m):
    """Compact SVD of a tall full-column-rank matrix.

    Returns (left_basis, singular_values, right_vh) with
    m = left_basis @ diag(s) @ right_vh.  Raises RankDeficientChannel when
    the smallest singular value falls below RANK_TOL times the largest.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError("expected a tall (rows >= cols) matrix")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[-1] < RANK_TOL * s[0]:
        raise RankDeficientChannel(
            f"smallest singular value {s[-1]:.3e} < {RANK_TOL:.0e} * {s[0]:.3e}"
        )
    return u, s, vh


def null_space_basis(m):
    """Orthonormal basis of the null space of m^H for a tall Nt x K matrix.

    The returned Nt x (Nt - K) matrix U satisfies m^H @ U = 0.
    """
    m = np.asarray(m)
    n_rows, n_cols = m.shape
    if n_rows <= n_cols:
        raise ValueError("null space of m^H is trivial unless rows > cols")
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    if s[-1] < RANK_TOL * s[0]:
        raise RankDeficientChannel(
            f"smallest singular value {s[-1]:.3e} < {RANK_TOL:.0e} * {s[0]:.3e}"
        )
    return u[:, n_cols:]


def positive_cubic_root(sigma, tau):
    """Unique positive root of x^3 - sigma*x^2 - tau = 0 for tau > 0.

    Works elementwise on arrays.  Newton from max(sigma, tau^(1/3)) + 1; the
    iterates stay on the increasing convex branch, so after one step the
    sequence decreases monotonically to the root.  Bisection fallback covers
    pathological floating-point cases.
    """
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be strictly positive")
    scalar_input = sigma.ndim == 0 and tau.ndim == 0
    sigma, tau = np.broadcast_arrays(sigma, tau)
    out_shape = sigma.shape
    sigma = sigma.astype(float).ravel()
    tau = tau.astype(float).ravel()

    x = np.maximum(sigma, np.cbrt(tau)) + 1.0
    res_scale = np.maximum(1.0, np.maximum(np.abs(sigma) ** 3, tau))
    branch_floor = (2.0 / 3.0) * np.maximum(sigma, 0.0) + 1e-300
    for it in range(60):
        step = (x * x * (x - sigma) - tau) / (x * (3.0 * x - 2.0 * sigma))
        x = np.maximum(x - step, branch_floor)  # stay on the branch where f' > 0
        if it % 2 and np.all(np.abs(step) <= 2e-15 * np.abs(x) + 1e-300):
            break

    bad = ~np.isfinite(x) | (np.abs(x * x * (x - sigma) - tau) > 1e-12 * res_scale)
    if np.any(bad):
        for i in np.nonzero(bad)[0]:
            x[i] = _cubic_bisect(sigma[i], tau[i])

    if scalar_input:
        return float(x[0])
    return x.reshape(out_shape)


def _cubic_bisect(sigma, tau):
    lo = max(sigma, 0.0)
    hi = max(sigma, 0.0) + np.cbrt(tau) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * mid * (mid - sigma) - tau > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def monotone_scalar_root(f, lo, hi, f_tol=None):
    """Bisection root of a monotone scalar function on the bracket [lo, hi].

    Stops when |f(mid)| <= f_tol (when given) or the bracket has shrunk to
    1e-14 of its initial width.  Raises InvalidBracket when f(lo) and f(hi)
    have the same sign.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise InvalidBracket(f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} have the same sign")
    width0 = hi - lo
    increasing = fhi > 0.0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if f_tol is not None and abs(fmid) <= f_tol:
            return mid
        if (fmid > 0.0) == increasing:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * width0:
            break
    return 0.5 * (lo + hi)
