"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the
partial trace sums indices explicitly, the Lindblad oracle exponentiates
the vectorized superoperator, the phase-average oracle conjugates by
explicitly sampled unitaries, and the noise-strength oracle takes SVD
operator norms of the dense jump operators.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from dfsqec.qstate import DEVIATION, STATE, DensityMatrix


def basis_state(bits: str) -> DensityMatrix:
    """Projector onto a computational basis state, e.g. ``"010"``."""
    return DensityMatrix(np.diag([float(i == int(bits, 2)) for i in range(2 ** len(bits))]))


def random_state(rng: np.random.Generator, n_qubits: int) -> DensityMatrix:
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, STATE)


def random_deviation(rng: np.random.Generator, n_qubits: int) -> DensityMatrix:
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    h -= np.trace(h).real / dim * np.eye(dim)
    return DensityMatrix(h, DEVIATION)


def oracle_partial_trace(entries: np.ndarray, n_qubits: int, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit index summation (1-based, big-endian)."""
    keep = sorted(keep)
    traced = [q for q in range(1, n_qubits + 1) if q not in keep]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)

    def full_index(keep_bits: int, traced_bits: int) -> int:
        idx = 0
        for q in range(n_qubits, 0, -1):
            if q in keep:
                bit = (keep_bits >> (len(keep) - 1 - keep.index(q))) & 1
            else:
                bit = (traced_bits >> (len(traced) - 1 - traced.index(q))) & 1
            idx |= bit << (n_qubits - q)
        return idx

    for i in range(dim_out):
        for j in range(dim_out):
            acc = 0.0 + 0.0j
            for k in range(2 ** len(traced)):
                acc += entries[full_index(i, k), full_index(j, k)]
            out[i, j] = acc
    return out


def oracle_z_values(weights: np.ndarray) -> np.ndarray:
    """Eigenvalues of sum_j w_j sigma_z^j by explicit bit inspection."""
    n = len(weights)
    out = np.zeros(2**n)
    for m in range(2**n):
        total = 0.0
        for j in range(1, n + 1):
            bit = (m >> (n - j)) & 1
            total += weights[j - 1] * (1.0 if bit == 0 else -1.0)
        out[m] = total
    return out


def oracle_noise_strengths(gens) -> tuple[float, list[float]]:
    """(noise_strength, partial_strengths) by the dense definition: the
    largest singular value (SVD) of each lindblad_matrix() L_mu and of
    sum_mu L_mu^dag L_mu, taken as inf once an entry has overflowed."""

    def norm(x):
        return np.linalg.norm(x, 2) if np.all(np.isfinite(x)) else np.float64(np.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        mats = [g.lindblad_matrix() for g in gens]
        total = sum(norm(m) ** 2 for m in mats) + norm(sum(m.conj().T @ m for m in mats))
        return float(total), [float(2.0 * norm(m) ** 2) for m in mats]


def oracle_lindblad_evolve(
    rho: np.ndarray, jump_ops: list[np.ndarray], t: float
) -> np.ndarray:
    """Exponentiate the column-stacked Lindblad superoperator."""
    dim = rho.shape[0]
    eye = np.eye(dim)
    superop = np.zeros((dim * dim, dim * dim), dtype=complex)
    for L in jump_ops:
        ldl = L.conj().T @ L
        superop += np.kron(L.conj(), L)
        superop -= 0.5 * np.kron(eye, ldl)
        superop -= 0.5 * np.kron(ldl.T, eye)
    vec = rho.flatten(order="F")
    out = expm(superop * t) @ vec
    return out.reshape((dim, dim), order="F")


def oracle_phase_average(
    rho: np.ndarray,
    weights: np.ndarray,
    kappa: float,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo average of U(phi) rho U(phi)^dag over uniform phi.

    Returns (elementwise mean, elementwise standard error), the latter
    combining real and imaginary spreads in quadrature.
    """
    z = oracle_z_values(weights)
    total = np.zeros_like(rho, dtype=complex)
    total_sq_re = np.zeros(rho.shape)
    total_sq_im = np.zeros(rho.shape)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        phis = rng.uniform(-kappa / 2.0, kappa / 2.0, size=m)
        diag = np.exp(-1j * np.outer(phis, z) / 2.0)  # (m, dim)
        factors = diag[:, :, None] * diag[:, None, :].conj()
        outs = factors * rho[None, :, :]
        total += outs.sum(axis=0)
        total_sq_re += (outs.real**2).sum(axis=0)
        total_sq_im += (outs.imag**2).sum(axis=0)
        done += m
    mean = total / n_samples
    var_re = total_sq_re / n_samples - mean.real**2
    var_im = total_sq_im / n_samples - mean.imag**2
    se = np.sqrt(np.clip(var_re, 0.0, None) + np.clip(var_im, 0.0, None)) / np.sqrt(n_samples)
    return mean, se


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
