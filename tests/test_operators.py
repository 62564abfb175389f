import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbus import operators as ops
from spinbus.errors import DomainError

EPS = [
    ("x", "y", "z", 1), ("y", "z", "x", 1), ("z", "x", "y", 1),
    ("y", "x", "z", -1), ("z", "y", "x", -1), ("x", "z", "y", -1),
]


def _pauli(axis, site, n_sites):
    return np.asarray(ops.pauli(axis, site, n_sites))


def test_pauli_z_is_diagonal():
    assert np.array_equal(ops.pauli("z", 0, 1), np.diag([1.0 + 0j, -1.0]))


def test_pauli_algebra_table_exact():
    for a, b, c, sign in EPS:
        lhs = _pauli(a, 0, 1) @ _pauli(b, 0, 1)
        assert np.array_equal(lhs, sign * 1j * _pauli(c, 0, 1))
    for a in "xyz":
        assert np.array_equal(_pauli(a, 0, 1) @ _pauli(a, 0, 1), np.eye(2, dtype=complex))


def test_pauli_disjoint_sites_commute():
    z0 = _pauli("z", 0, 2)
    z1 = _pauli("z", 1, 2)
    assert np.array_equal(z0 @ z1, z1 @ z0)


def test_pauli_ladder_definition():
    sp = (_pauli("x", 0, 1) + 1j * _pauli("y", 0, 1)) / 2
    assert np.array_equal(ops.pauli("+", 0, 1), sp)


def test_pauli_site_ordering_site0_most_significant():
    # site 0 leftmost factor: z on site 0 of 2 is diag(1,1,-1,-1)
    assert np.array_equal(np.diag(ops.pauli("z", 0, 2)), np.array([1, 1, -1, -1], dtype=complex))
    assert np.array_equal(np.diag(ops.pauli("z", 1, 2)), np.array([1, -1, 1, -1], dtype=complex))


@pytest.mark.parametrize("axis, site, n_sites", [("z", 2, 2), ("z", 0, 13), ("q", 0, 1), ("i", 0, 1)],
                         ids=["site-out-of-range", "too-many-sites", "axis-q", "axis-i"])
def test_pauli_domain_errors(axis, site, n_sites):
    with pytest.raises(DomainError):
        ops.pauli(axis, site, n_sites)


def test_embed_matches_kron_on_contiguous_sites():
    rng = np.random.default_rng(7)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direct = np.kron(op, np.eye(2))
    assert np.allclose(ops.embed(op, [0, 1], 3), direct, atol=1e-14)
    direct_right = np.kron(np.eye(2), op)
    assert np.allclose(ops.embed(op, [1, 2], 3), direct_right, atol=1e-14)


def test_embed_site_order_swaps_factors():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    reversed_cnot = ops.embed(cnot, [1, 0], 2)
    assert np.allclose(reversed_cnot, swap @ cnot @ swap, atol=1e-14)


def test_expm_h_basics():
    sz = _pauli("z", 0, 1)
    assert np.allclose(ops.expm_h(sz, math.pi / 2), -1j * sz, atol=1e-12)
    assert np.allclose(ops.expm_h(sz, math.pi), -np.eye(2), atol=1e-12)
    assert np.allclose(ops.expm_h(sz, 0.0), np.eye(2), atol=1e-15)


def test_expm_h_heisenberg_quarter_is_swap():
    # eigenvalues of sigma.sigma: +1 (triplet), -3 (singlet), so the pi/4
    # pulse is e^{-i pi/4} on the triplet and e^{+3i pi/4} on the singlet
    dot = ops.heisenberg_coupling(0, 1, 2)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    u = ops.expm_h(dot, math.pi / 4)
    assert np.max(np.abs(u - np.exp(-1j * math.pi / 4) * swap)) < 1e-10


def test_expm_h_rejects_non_hermitian():
    with pytest.raises(DomainError):
        ops.expm_h(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


_H0 = np.array([[1.1, 2.0], [2.0, -1.1]], dtype=complex)
_G = np.array([[0.65, 0.2 - 0.4j], [0.2 + 0.4j, -0.65]], dtype=complex)


def _midpoint_reference(h0, g, t0, t1, steps):
    """The exponential midpoint rule step by step: prod_k exp(-i H(t_k) dt)
    with H(t) = R(t) h0 R(t)^dag built afresh at every midpoint t_k."""
    dt = (t1 - t0) / steps
    u = np.eye(h0.shape[0], dtype=complex)
    for k in range(steps):
        r = np.asarray(ops.expm_h(g, t0 + (k + 0.5) * dt))  # R(t_k)
        h = r @ h0 @ r.conj().T
        u = np.asarray(ops.expm_h((h + h.conj().T) / 2, dt)) @ u
    return u


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def test_evolve_td_constant_matches_expm():
    h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
    u = np.asarray(ops.evolve_td(h, np.zeros((2, 2)), 0.0, 2.0, steps=17))
    assert np.max(np.abs(u - ops.expm_h(h, 2.0))) < 1e-10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.sampled_from([1, 2, 3, 17, 64, 255]),
    st.floats(-1.0, 1.0),
    st.floats(0.05, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_evolve_td_matches_stepwise_midpoint_product(n_sites, steps, t0, duration, seed):
    rng = np.random.default_rng(seed)
    h0, g = _random_hermitian(rng, 2**n_sites), _random_hermitian(rng, 2**n_sites)
    u = ops.evolve_td(h0, g, t0, t0 + duration, steps)
    assert np.max(np.abs(u - _midpoint_reference(h0, g, t0, t0 + duration, steps))) <= 1e-10


def test_evolve_td_step_doubling_ratio():
    # in the frame R(t) the Hamiltonian is the constant h0 - G, so the exact
    # propagator over [0, T] is R(T) exp(-i (h0 - G) T)
    exact = np.asarray(ops.expm_h(_G, 3.0)) @ ops.expm_h(_H0 - _G, 3.0)
    errs = []
    for steps in (64, 128, 256):
        u = ops.evolve_td(_H0, _G, 0.0, 3.0, steps=steps)
        errs.append(np.max(np.abs(u - exact)))
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.5


def test_evolve_td_reverse_composes_to_identity():
    # -H(T - t) = R(T) [R(-t) (-h0) R(-t)^dag] R(T)^dag: generator -G, framed by R(T)
    u = ops.evolve_td(_H0, _G, 0.0, 3.0, steps=200)
    r = np.asarray(ops.expm_h(_G, 3.0))
    back = r @ ops.evolve_td(-_H0, -_G, 0.0, 3.0, steps=200) @ r.conj().T
    assert np.max(np.abs(back @ u - np.eye(2))) < 1e-11


def test_evolve_td_unitary():
    u = np.asarray(ops.evolve_td(_H0, _G, 0.0, 5.0, steps=101))
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-8


def test_evolve_td_validates_input():
    not_hermitian = np.array([[0, 1], [0, 0]], dtype=complex)
    for args in (
        (_H0, _G, 0.0, 1.0, 0),
        (not_hermitian, _G, 0.0, 1.0, 4),
        (_H0, not_hermitian, 0.0, 1.0, 4),
        (_H0, np.zeros((4, 4)), 0.0, 1.0, 4),
        (np.zeros((2, 3)), np.zeros((2, 3)), 0.0, 1.0, 4),
    ):
        with pytest.raises(DomainError):
            ops.evolve_td(*args)


def test_fidelity_properties():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = np.asarray(ops.expm_h(h + h.conj().T, 0.7))
    assert ops.fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert ops.fidelity(u, np.exp(1j * 0.9) * u) == pytest.approx(1.0, abs=1e-12)
    assert ops.fidelity(np.eye(2), _pauli("x", 0, 1)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_dim_mismatch():
    with pytest.raises(DomainError):
        ops.fidelity(np.eye(2), np.eye(4))


@pytest.mark.parametrize("call, message", [
    (lambda: ops.embed([[1]], [0], 2), "operator of dimension 1 does not match 1 sites"),
    (lambda: ops.fidelity(np.diag([2.0, 1.0]), np.eye(2)), "fidelity is defined for unitary operators"),
], ids=["embed-dimension", "fidelity-non-unitary"])
def test_operator_of_the_wrong_kind_refused(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_operator_distance_phase_aligned():
    u = np.asarray(ops.expm_h(ops.pauli("y", 0, 1), 0.3))
    assert ops.operator_distance(u, np.exp(1j * 1.1) * u) < 1e-12


def test_hermitian_predicate_tolerance():
    h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    assert ops.is_hermitian(h)
    bumped = h + np.array([[0, 1e-9], [0, 0]])
    assert not ops.is_hermitian(bumped, tol=1e-10)
    assert ops.is_hermitian(bumped, tol=1e-8)
    # tolerance scales with the operator's magnitude
    assert ops.is_hermitian(1e6 * bumped, tol=1e-8)


def test_unitary_predicate_tolerance():
    u = np.asarray(ops.expm_h(ops.pauli("x", 0, 1), 0.7))
    assert ops.is_unitary(u)
    assert not ops.is_unitary(1.001 * u, tol=1e-8)
    assert not ops.is_unitary(np.array([[1, 0], [0, 0]], dtype=complex))


def test_embed_random_three_site_against_direct_product():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # embed a two-site product operator on non-adjacent sites (0, 2) of 3
    two_site = np.kron(a, b)
    got = ops.embed(two_site, [0, 2], 3)
    direct = np.kron(a, np.kron(np.eye(2, dtype=complex), b))
    assert np.allclose(got, direct, atol=1e-13)
    # and with the factor order flipped
    got_flipped = ops.embed(two_site, [2, 0], 3)
    direct_flipped = np.kron(b, np.kron(np.eye(2, dtype=complex), a))
    assert np.allclose(got_flipped, direct_flipped, atol=1e-13)


def _kron_reference(op, sites, n):
    """embed() written out as a sum over the operator's matrix units: each
    unit |i><j| on k sites is a Kronecker product of single-site units."""
    k = len(sites)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**k):
        for j in range(2**k):
            factors = [np.eye(2, dtype=complex)] * n
            for a, site in enumerate(sites):
                unit = np.zeros((2, 2), dtype=complex)
                unit[(i >> (k - 1 - a)) & 1, (j >> (k - 1 - a)) & 1] = 1.0
                factors[site] = unit
            term = np.ones((1, 1), dtype=complex)
            for f in factors:
                term = np.kron(term, f)
            full += op[i, j] * term
    return full


@st.composite
def _gate_and_state(draw):
    n = draw(st.integers(1, 6))
    sites = draw(st.permutations(range(n)))[: draw(st.integers(1, min(2, n)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2 ** len(sites)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    return q, list(sites), n, u


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_gate_and_state())
def test_apply_matches_kron_reference(case):
    op, sites, n, u = case
    reference = _kron_reference(op, sites, n)
    assert np.allclose(ops.apply(op, sites, u), reference @ u, rtol=0, atol=1e-13)
    assert np.allclose(ops.embed(op, sites, n), reference, rtol=0, atol=1e-15)


def test_apply_validates_inputs():
    u = np.eye(8, dtype=complex)
    with pytest.raises(DomainError, match="bad site list"):
        ops.apply(np.eye(4), [1, 1], u)
    with pytest.raises(DomainError, match="bad site list"):
        ops.apply(np.eye(2), [3], u)
    with pytest.raises(DomainError, match="does not match"):
        ops.apply(np.eye(4), [0], u)
    with pytest.raises(DomainError, match="power of 2"):
        ops.apply(np.eye(2), [0], np.eye(6))


def _eigh_expm(h, t):
    """exp(-i h t) from numpy's eigendecomposition: the reference for the
    plain-complex algebra of ``operators``."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _unitarity_error(u):
    u = np.asarray(u)
    return np.max(np.abs(u.conj().T @ u - np.eye(len(u))))


@st.composite
def _hermitian_pair(draw):
    """A non-diagonal Hermitian h0 and a generator that is diagonal, non-diagonal
    or degenerate (sigma.sigma has eigenvalues 1, 1, 1, -3), of dimension 2 or 4."""
    dim = draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h0, g = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
    kind = draw(st.sampled_from(["full", "diagonal", "degenerate"]))
    if kind == "diagonal":
        g = np.diag(np.diag(g).real).astype(complex)
    elif kind == "degenerate" and dim == 4:
        g = 1.3 * np.asarray(ops.heisenberg_coupling(0, 1, 2))
    return h0, g


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_hermitian_pair(), st.floats(-3.0, 3.0), st.floats(0.05, 3.0), st.sampled_from([1, 2, 17, 255]))
def test_plain_complex_algebra_matches_numpy_eigh(pair, t0, duration, steps):
    h0, g = pair
    t1 = t0 + duration
    for h in (h0, g):
        u = ops.expm_h(h, t0)
        assert np.max(np.abs(np.asarray(u) - _eigh_expm(h, t0))) <= 1e-12
        assert _unitarity_error(u) <= 1e-13
    dt = duration / steps
    e = _eigh_expm(h0, dt)
    want = (
        _eigh_expm(g, t1 - dt / 2)
        @ np.linalg.matrix_power(e @ _eigh_expm(g, -dt), steps - 1)
        @ e
        @ _eigh_expm(g, -(t0 + dt / 2))
    )
    got = ops.evolve_td(h0, g, t0, t1, steps)
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12
    assert _unitarity_error(got) <= 1e-13
    u, v = _eigh_expm(h0, t0), _eigh_expm(g, duration)
    overlap = np.trace(u.conj().T @ v)
    assert abs(ops.fidelity(u, v) - abs(overlap) / len(u)) <= 1e-12
    assert abs(ops.operator_distance(u, v) - np.max(np.abs(np.exp(1j * np.angle(overlap)) * u - v))) <= 1e-12


@pytest.mark.parametrize("sites", [[0], [1], [2], [0, 1], [1, 2]])
def test_embed_at_three_sites_is_the_kron_product(sites):
    rng = np.random.default_rng(len(sites) * 10 + sites[0])
    dim = 2 ** len(sites)
    op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    before, after = np.eye(2 ** sites[0]), np.eye(2 ** (3 - sites[-1] - 1))
    assert np.array_equal(np.asarray(ops.embed(op, sites, 3)), np.kron(np.kron(before, op), after))
