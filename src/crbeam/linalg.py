"""Complex Hermitian matrix primitives and scalar root finders.

Everything downstream treats these as given: compact SVD and null-space bases
under one rank check, tr(R^-1) under one singularity rule, the closed-form
positive cubic root behind prox_y and prox_z (Cardano or trigonometric by
branch, then one Newton polish), and a bisection root for monotone functions.
"""

import math

import numpy as np

RANK_TOL = 1e-10
COND_TOL = 1e-12  # trace_inverse: lambda_min <= COND_TOL * lambda_max is singular


class RankDeficientChannel(Exception):
    """Channel matrix does not have full column rank."""


class InvalidBracket(Exception):
    """Root bracket does not straddle a sign change."""


def require_full_rank(s):
    """Raise RankDeficientChannel when min(s) < RANK_TOL max(s), s sorted descending."""
    if s[-1] < RANK_TOL * s[0]:
        raise RankDeficientChannel(f"smallest singular value {s[-1]:.3e} < {RANK_TOL:.0e} * {s[0]:.3e}")


def compact_svd(m):
    """Compact SVD of a tall full-column-rank matrix.

    Returns (left_basis, singular_values, right_vh) with
    m = left_basis @ diag(s) @ right_vh.  Raises RankDeficientChannel by require_full_rank.
    """
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError("expected a tall (rows >= cols) matrix")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    require_full_rank(s)
    return u, s, vh


def null_space_basis(m):
    """Orthonormal basis of the null space of m^H for a tall Nt x K matrix.

    The returned Nt x (Nt - K) matrix U satisfies m^H @ U = 0.  Raises
    RankDeficientChannel by require_full_rank.
    """
    n_rows, n_cols = m.shape
    if n_rows <= n_cols:
        raise ValueError("null space of m^H is trivial unless rows > cols")
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    require_full_rank(s)
    return u[:, n_cols:]


def trace_inverse(eigs, theta=0.0, null_dim=0):
    """Sum of 1/lambda over ascending eigenvalues `eigs` (as eigvalsh returns them) and
    `theta` of multiplicity `null_dim` (R = U Y U^H + theta P_null: eig(Y), theta, Nt - K),
    i.e. tr(R^-1); inf when lambda_min <= COND_TOL * lambda_max, any lambda <= 0 included."""
    low, high = (min(eigs[0], theta), max(eigs[-1], theta)) if null_dim else (eigs[0], eigs[-1])
    if low <= COND_TOL * high:
        return np.inf
    head = float(np.sum(1.0 / eigs))
    return head + null_dim / theta if null_dim else head


def positive_cubic_root(sigma, tau):
    """Unique positive root of x^3 - sigma*x^2 - tau = 0 for one tau > 0.

    Closed form plus one Newton polish; NaN for a non-finite sigma or a NaN
    tau.  The root of (c sigma, c^3 tau) is c times the root of (sigma, tau),
    so an exact power-of-two c first brings max(|sigma|, tau^(1/3)) into
    [1/2, 1).  Each input evaluates only its own cancellation-free branch:

    - sigma >= 0: Cardano in x - sigma/3, x = sigma/3 + A + sigma^2 / (9A)
      with A = cbrt(sigma^3/27 + tau/2 + sqrt(tau (sigma^3/27 + tau/4)));
    - 27 tau >= 4 |sigma|^3: u = 1/x is the one real root of u^3 + (sigma/tau) u - 1/tau,
      u = A + |sigma|/(3 tau A) with A = cbrt(1/(2 tau) + sqrt((tau/4 - |sigma|^3/27) / tau^3));
    - otherwise, unscaled as the scaled tau may underflow, x = sqrt(tau / |sigma|) / v
      with v = 2/sqrt(3) cos(arccos(1.5 sqrt(3) eps) / 3) the largest root of
      v^3 - v = eps = sqrt(tau / |sigma|^3), which the Newton step polishes instead.
    """
    if tau <= 0.0:
        raise ValueError("tau must be strictly positive")
    if not math.isfinite(sigma):
        return math.nan
    _, e = math.frexp(max(abs(sigma), float(np.cbrt(tau))))
    s = math.ldexp(sigma, -e)
    t = math.ldexp(tau, -3 * e)
    q = abs(s) ** 3 / 27.0
    if s >= 0.0:
        a = float(np.cbrt(q + 0.5 * t + math.sqrt(t) * math.sqrt(q + 0.25 * t)))
        x = s / 3.0 + a + s * s / (9.0 * a)
    elif 0.25 * t >= q:
        a = float(np.cbrt(0.5 / t + math.sqrt((0.25 * t - q) / t**3)))
        x = 1.0 / (a - s / (3.0 * t * a))
    else:
        eps = math.sqrt(tau / -sigma / sigma / sigma)
        v = 2.0 / math.sqrt(3.0) * math.cos(math.acos(min(1.5 * math.sqrt(3.0) * eps, 1.0)) / 3.0)
        v = v - (v * v * v - v - eps) / (3.0 * v * v - 1.0)
        return math.sqrt(tau) / math.sqrt(-sigma) / v
    x = x - (x * x * (x - s) - t) / (x * (3.0 * x - 2.0 * s))
    return math.ldexp(x, e)


def monotone_scalar_root(f, lo, hi):
    """Bisection root of a monotone scalar function on the bracket [lo, hi].

    Stops when the bracket has shrunk to 1e-14 of its initial width.  Raises
    InvalidBracket when f(lo) and f(hi) have the same sign.
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == increasing:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * width0:
            break
    return 0.5 * (lo + hi)
