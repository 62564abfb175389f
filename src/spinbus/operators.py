"""Dense operator algebra on small chains of spin-1/2 sites.

Operators are square matrices held as rows of plain Python complex numbers
(returned as lists of lists; any sequence of rows, a numpy array too, is
taken), so the two-spin algebra of ``gates`` runs without numpy.  Only
``apply``, the kernel of the dense schedule simulation, imports numpy.  Site
0 is the leftmost (most significant) tensor factor; this ordering is fixed
package-wide.  Everything here is pure: no function mutates its inputs.
"""

from __future__ import annotations

import cmath
import math
from operator import mul

from .errors import DomainError, NumericalError

MAX_SITES = 12  # dense cap for pauli()

_SINGLE = {
    "x": ((0, 1), (1, 0)),
    "y": ((0, -1j), (1j, 0)),
    "z": ((1, 0), (0, -1)),
    "+": ((0, 1), (0, 0)),  # (x + i y)/2
    "-": ((0, 0), (1, 0)),  # (x - i y)/2
}


def rows(m) -> list[list[complex]]:
    """``m`` as a new list of rows of complex numbers; it must be square."""
    out = [[complex(x) for x in row] for row in m]
    if not out or any(len(row) != len(out) for row in out):
        raise DomainError(f"operator must be a non-empty square matrix, got row lengths {[len(r) for r in out]}")
    return out


def diag(values) -> list[list[complex]]:
    values = [complex(x) for x in values]
    return [[x if i == j else 0j for j in range(len(values))] for i, x in enumerate(values)]


def dagger(m) -> list[list[complex]]:
    return [[x.conjugate() for x in col] for col in zip(*m)]


def matmul(*factors) -> list[list[complex]]:
    """The matrix product of the factors, taken left to right."""
    out = factors[0]
    for factor in factors[1:]:
        cols = list(zip(*factor))
        out = [[sum(map(mul, row, col)) for col in cols] for row in out]
    return out


def lincomb(*terms) -> list[list[complex]]:
    """sum c M over the ``(c, M)`` pairs, whose matrices share one shape."""
    coefs = [c for c, _ in terms]
    return [[sum(map(mul, coefs, entries)) for entries in zip(*group)] for group in zip(*(m for _, m in terms))]


def pauli(axis: str, site: int, n_sites: int) -> list[list[complex]]:
    """I x ... x sigma_axis x ... x I with sigma at position ``site``."""
    if axis not in _SINGLE:
        raise DomainError(f"unknown Pauli axis {axis!r}")
    if not (1 <= n_sites <= MAX_SITES):
        raise DomainError(f"n_sites must be in [1, {MAX_SITES}], got {n_sites}")
    if not (0 <= site < n_sites):
        raise DomainError(f"site {site} out of range for {n_sites} sites")
    return embed(_SINGLE[axis], [site], n_sites)


def apply(op, sites: list[int], u):
    """``embed(op, sites, n) @ u`` for a numpy array ``u`` with 2^n rows,
    without building the embedded operator: the gate is contracted into the
    site axes of ``u`` and the axes are moved back, O(2^k) work per entry."""
    import numpy as np

    op = np.asarray(op, dtype=complex)
    k, n = len(sites), u.shape[0].bit_length() - 1
    if u.shape[0] != 2**n:
        raise DomainError(f"state has {u.shape[0]} rows, not a power of 2")
    if op.shape != (2**k, 2**k):
        raise DomainError(f"operator shape {op.shape} does not match {k} sites")
    _check_sites(sites, n)
    gate_in = list(range(k, 2 * k))
    t = np.tensordot(op.reshape((2,) * (2 * k)), u.reshape((2,) * n + (-1,)), axes=(gate_in, list(sites)))
    return np.moveaxis(t, list(range(k)), list(sites)).reshape(u.shape)


def _check_sites(sites, n_sites: int) -> None:
    if len(set(sites)) != len(sites) or not all(0 <= s < n_sites for s in sites):
        raise DomainError(f"bad site list {sites} for {n_sites} sites")


def embed(op, sites: list[int], n_sites: int) -> list[list[complex]]:
    """Embed a k-site operator on the given sites (most significant first):
    entry (r, c) is op[i, j] where r and c agree off the sites and carry the
    bits of i and j on them, and 0 elsewhere."""
    op, k = rows(op), len(sites)
    if len(op) != 2**k:
        raise DomainError(f"operator of dimension {len(op)} does not match {k} sites")
    _check_sites(sites, n_sites)
    # placed[j]: the bits of gate index j moved to their sites' positions
    placed = [sum(((j >> (k - 1 - a)) & 1) << (n_sites - 1 - s) for a, s in enumerate(sites)) for j in range(2**k)]
    mask, out = placed[-1], []  # placed[-1]: every site bit set
    for r in range(2**n_sites):
        row, rest = [0j] * 2**n_sites, r & ~mask
        for j, x in zip(placed, op[placed.index(r & mask)]):
            row[rest | j] = x
        out.append(row)
    return out


def heisenberg_coupling(site_a: int, site_b: int, n_sites: int) -> list[list[complex]]:
    """sigma_a . sigma_b = xx + yy + zz between two sites."""
    return lincomb(*((1, matmul(pauli(ax, site_a, n_sites), pauli(ax, site_b, n_sites))) for ax in "xyz"))


def is_hermitian(m, tol: float = 1e-10) -> bool:
    """Max-norm Hermiticity test, scaled by the operator's own magnitude."""
    m = rows(m)
    scale = max(1.0, max(abs(x) for row in m for x in row))
    return max(abs(x - y.conjugate()) for row, col in zip(m, zip(*m)) for x, y in zip(row, col)) <= tol * scale


def is_unitary(m, tol: float = 1e-8) -> bool:
    m = rows(m)
    return max(abs(x - (i == j)) for i, row in enumerate(matmul(dagger(m), m)) for j, x in enumerate(row)) <= tol


def _eigh(h: list[list[complex]]) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues w and eigenvector columns v of a Hermitian h = v diag(w) v^dag
    by cyclic Jacobi rotations (Golub and Van Loan, Matrix Computations, 4th
    ed., sec. 8.5), each a phase that makes the pivot real, then a real
    rotation that zeroes it.  A diagonal h takes none, and v is None for I."""
    a, n = [list(row) for row in h], len(h)
    v = diag([1] * n)
    pivots = [(p, q) for p in range(n) for q in range(p + 1, n)]
    floor = 1e-17 * max(abs(x) for row in a for x in row)
    for sweep in range(50):
        if max((abs(a[p][q]) for p, q in pivots), default=0.0) <= floor:
            return [a[i][i].real for i in range(n)], v if sweep else None
        for p, q in pivots:
            r = abs(a[p][q])
            if r == 0.0:
                continue
            phase, app, aqq = a[p][q] / r, a[p][p].real, a[q][q].real
            theta = (aqq - app) / (2.0 * r)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c, s = 1.0 / math.hypot(t, 1.0), t / math.hypot(t, 1.0)
            cb, sb = c * phase.conjugate(), s * phase.conjugate()
            for row in a + v:  # columns: m <- m J, J = [[c, s], [-s e^{-i phi}, c e^{-i phi}]] on (p, q)
                x, y = row[p], row[q]
                row[p], row[q] = c * x - sb * y, s * x + cb * y
            ap, aq = a[p], a[q]
            for k in range(n):  # rows: a <- J^dag a
                x, y = ap[k], aq[k]
                ap[k], aq[k] = c * x - sb.conjugate() * y, s * x + cb.conjugate() * y
            ap[p], aq[q] = complex(app - t * r), complex(aqq + t * r)
            ap[q] = aq[p] = 0j
    raise NumericalError("Jacobi eigendecomposition did not converge in 50 sweeps")


def _spectral_exp(w: list[float], v: list[list[complex]], t: float) -> list[list[complex]]:
    """v diag(exp(-i w t)) v^dag, summed as I + v diag(exp(-i w t) - 1) v^dag so
    that the rounding of v is scaled by |exp(-i w t) - 1|, small over the short
    steps of ``evolve_td``, whose error is raised to the power ``steps``."""
    shifts = [complex(-2.0 * math.sin(x * t / 2) ** 2, -math.sin(x * t)) for x in w]
    if v is None:
        return diag([1.0 + x for x in shifts])
    out = matmul([list(map(mul, row, shifts)) for row in v], dagger(v))
    for i, row in enumerate(out):
        row[i] += 1.0
    return out


def expm_h(h, angle_t: float) -> list[list[complex]]:
    """exp(-i * H * angle_t) for Hermitian H, by eigendecomposition.

    The product H * angle_t must be dimensionless (H in rad/s with t in
    seconds, or H dimensionless with angle_t in radians).
    """
    h = rows(h)
    if not is_hermitian(h):
        raise DomainError("expm_h requires a Hermitian matrix")
    return _spectral_exp(*_eigh(h), angle_t)


def evolve_td(h0, generator, t0: float, t1: float, steps: int) -> list[list[complex]]:
    """Time-ordered propagator of H(t) = R(t) h0 R(t)^dag, R(t) = exp(-i G t),
    by the exponential midpoint rule.

    Each step applies exp(-i H(t_mid) dt) = R(t_mid) E R(t_mid)^dag with
    E = exp(-i h0 dt).  Between neighbouring steps the rotations cancel to
    R(-dt), so the product is R(t_last) (E R(-dt))^(steps-1) E R(t_first)^dag
    = R(t1 - dt/2) (E R(-dt))^steps R(dt/2 - t0), and the power is taken by
    repeated squaring.  The result is unitary by
    construction and converges with O(dt^2) error.  ``h0`` and the
    Hermitian ``generator`` G are in angular-frequency units (rad/s).
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    h0, generator = rows(h0), rows(generator)
    if len(generator) != len(h0):
        raise DomainError(f"h0 ({len(h0)} rows) and generator ({len(generator)} rows) must be of one shape")
    if not is_hermitian(generator):
        raise DomainError("evolve_td requires a Hermitian generator")
    dt = (t1 - t0) / steps
    e = expm_h(h0, dt)
    w, v = _eigh(generator)
    base, u, n = matmul(e, _spectral_exp(w, v, -dt)), _spectral_exp(w, v, dt / 2 - t0), steps
    while n:
        if n & 1:
            u = matmul(base, u)
        n >>= 1
        if n:
            base = matmul(base, base)
    u = matmul(_spectral_exp(w, v, t1 - dt / 2), u)
    if not is_unitary(u, 1e-8):
        raise NumericalError("evolve_td produced a non-unitary propagator")
    return u


def _overlap(u, v) -> complex:
    """Tr(U^dag V)."""
    return sum(x.conjugate() * y for ru, rv in zip(u, v) for x, y in zip(ru, rv))


def fidelity(u, v) -> float:
    """|Tr(U^dag V)| / dim, invariant under a global phase of either argument."""
    u, v = rows(u), rows(v)
    if len(u) != len(v):
        raise DomainError(f"dimension mismatch {len(u)} vs {len(v)}")
    if not (is_unitary(u) and is_unitary(v)):
        raise DomainError("fidelity is defined for unitary operators")
    return abs(_overlap(u, v)) / len(u)


def global_phase(u, v) -> float:
    """Phase phi with v ~ e^{i phi} u (the argument of Tr(U^dag V))."""
    return cmath.phase(_overlap(rows(u), rows(v)))


def operator_distance(u, v) -> float:
    """Max-norm distance after aligning the global phase of u to v."""
    u, v = rows(u), rows(v)
    phase = cmath.exp(1j * global_phase(u, v))
    return max(abs(phase * x - y) for ru, rv in zip(u, v) for x, y in zip(ru, rv))
