"""Dense operator algebra on small chains of spin-1/2 sites.

Operators are plain complex numpy arrays of shape (2^n, 2^n).  Site 0 is
the leftmost (most significant) tensor factor; this ordering is fixed
package-wide.  Everything here is pure: no function mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError

MAX_SITES = 12  # dense cap for pauli(); schedule simulation needs at most 9 (8 qubits + header)

_SINGLE = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),  # (x + i y)/2
    "-": np.array([[0, 0], [1, 0]], dtype=complex),  # (x - i y)/2
}


def pauli(axis: str, site: int, n_sites: int) -> np.ndarray:
    """I x ... x sigma_axis x ... x I with sigma at position ``site``."""
    if axis not in _SINGLE:
        raise DomainError(f"unknown Pauli axis {axis!r}")
    if not (1 <= n_sites <= MAX_SITES):
        raise DomainError(f"n_sites must be in [1, {MAX_SITES}], got {n_sites}")
    if not (0 <= site < n_sites):
        raise DomainError(f"site {site} out of range for {n_sites} sites")
    return embed(_SINGLE[axis], [site], n_sites)


def apply(op: np.ndarray, sites: list[int], u: np.ndarray) -> np.ndarray:
    """``embed(op, sites, n) @ u`` for an array ``u`` with 2^n rows, without
    building the embedded operator: the gate is contracted into the site
    axes of ``u`` and the axes are moved back, O(2^k) work per entry."""
    op = np.asarray(op, dtype=complex)
    k, n = len(sites), u.shape[0].bit_length() - 1
    if u.shape[0] != 2**n:
        raise DomainError(f"state has {u.shape[0]} rows, not a power of 2")
    if op.shape != (2**k, 2**k):
        raise DomainError(f"operator shape {op.shape} does not match {k} sites")
    if len(set(sites)) != k or not all(0 <= s < n for s in sites):
        raise DomainError(f"bad site list {sites} for {n} sites")
    gate_in = list(range(k, 2 * k))
    t = np.tensordot(op.reshape((2,) * (2 * k)), u.reshape((2,) * n + (-1,)), axes=(gate_in, list(sites)))
    return np.moveaxis(t, list(range(k)), list(sites)).reshape(u.shape)


def embed(op: np.ndarray, sites: list[int], n_sites: int) -> np.ndarray:
    """Embed a k-site operator on the given sites (most significant first)."""
    return apply(op, sites, np.eye(2**n_sites, dtype=complex))


def heisenberg_coupling(site_a: int, site_b: int, n_sites: int) -> np.ndarray:
    """sigma_a . sigma_b = xx + yy + zz between two sites."""
    return sum(
        pauli(ax, site_a, n_sites) @ pauli(ax, site_b, n_sites) for ax in "xyz"
    )


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Max-norm Hermiticity test, scaled by the operator's own magnitude."""
    m = np.asarray(m)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    return bool(np.max(np.abs(m - m.conj().T)) <= tol * scale)


def is_unitary(m: np.ndarray, tol: float = 1e-8) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def expm_h(h: np.ndarray, angle_t: float) -> np.ndarray:
    """exp(-i * H * angle_t) for Hermitian H, by eigendecomposition.

    The product H * angle_t must be dimensionless (H in rad/s with t in
    seconds, or H dimensionless with angle_t in radians).
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise DomainError("expm_h requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * angle_t)) @ v.conj().T


def evolve_td(
    h0: np.ndarray,
    generator: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
) -> np.ndarray:
    """Time-ordered propagator of H(t) = R(t) h0 R(t)^dag, R(t) = exp(-i G t),
    by the exponential midpoint rule.

    Each step applies exp(-i H(t_mid) dt) = R(t_mid) E R(t_mid)^dag with
    E = exp(-i h0 dt).  Between neighbouring steps the rotations cancel to
    R(-dt), so the product is R(t_last) (E R(-dt))^(steps-1) E R(t_first)^dag,
    and the power is taken by repeated squaring.  The result is unitary by
    construction and converges with O(dt^2) error.  ``h0`` and the
    Hermitian ``generator`` G are in angular-frequency units (rad/s).
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    h0 = np.asarray(h0, dtype=complex)
    generator = np.asarray(generator, dtype=complex)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1] or not h0.size or generator.shape != h0.shape:
        raise DomainError(f"h0 {h0.shape} and generator {generator.shape} must be square and of one shape")
    if not is_hermitian(generator):
        raise DomainError("evolve_td requires a Hermitian generator")
    dt = (t1 - t0) / steps
    e = expm_h(h0, dt)
    w, v = np.linalg.eigh(generator)

    def rotation(t: float) -> np.ndarray:
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    base, u, n = e @ rotation(-dt), e, steps - 1
    while n:
        if n & 1:
            u = base @ u
        base = base @ base
        n >>= 1
    u = rotation(t1 - dt / 2) @ u @ rotation(-(t0 + dt / 2))
    if not is_unitary(u, 1e-8):
        raise NumericalError("evolve_td produced a non-unitary propagator")
    return u


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(U^dag V)| / dim, invariant under a global phase of either argument."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise DomainError(f"dimension mismatch {u.shape} vs {v.shape}")
    if not (is_unitary(u) and is_unitary(v)):
        raise DomainError("fidelity is defined for unitary operators")
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])


def global_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Phase phi with v ~ e^{i phi} u (the argument of Tr(U^dag V))."""
    return float(np.angle(np.trace(np.asarray(u).conj().T @ np.asarray(v))))


def operator_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm distance after aligning the global phase of u to v."""
    phi = global_phase(u, v)
    return float(np.max(np.abs(np.exp(1j * phi) * np.asarray(u) - np.asarray(v))))
