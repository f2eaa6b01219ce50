"""Dense complex Hermitian linear algebra kernel.

Spectral computations use NumPy's LAPACK routines: :func:`herm_eig` wraps
``numpy.linalg.eigh`` for single matrices with the library's Hermitian
check and error types, and :func:`check_psd_stack` validates a whole stack
of matrices with one batched ``eigvalsh``.  The entropy paths in
:mod:`hybridcap.hybrid` call ``eigvalsh`` on stacks of posterior matrices
directly.  Two calls on bit-identical input give bit-identical output.

Complex entries are numpy ``complex128``, i.e. explicit (re, im) pairs of
IEEE-754 doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeEigenvalue, NoConvergence, NonHermitianInput

# Uniform PSD tolerance policy: eigenvalues in [PSD_FLOOR, 0] are clamped
# to zero, anything below PSD_FLOOR is an error.
PSD_FLOOR = -1e-9


@dataclass(frozen=True)
class HermEigResult:
    """Spectral decomposition A = V diag(w) V† with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def validate_hermitian(a, tol: float) -> bool:
    """True iff A is finite and max|A - A†| <= tol.

    Compared as |A/2 - A†/2| <= tol/2: halving is exact for normal floats,
    and the halved difference cannot overflow for finite entries.
    """
    m = as_complex_matrix(a)
    return bool(np.isfinite(m).all() and np.max(np.abs(m / 2.0 - m.conj().T / 2.0)) <= tol / 2.0)


def herm_eig(a) -> HermEigResult:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are returned ascending; column k of the eigenvector matrix
    belongs to eigenvalue k.  Raises NonHermitianInput if the input is not
    Hermitian within 1e-8, NoConvergence if LAPACK reports that the
    decomposition failed to converge.
    """
    m = as_complex_matrix(a)
    if not validate_hermitian(m, 1e-8):
        raise NonHermitianInput("matrix deviates from A† by more than 1e-8")
    try:
        w, V = np.linalg.eigh(m / 2.0 + m.conj().T / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc
    return HermEigResult(w, V)


def check_psd_stack(stack, not_hermitian: str, negative: str, labels=("",)) -> None:
    """Validate a (k, d, d) stack of matrices expected Hermitian PSD.

    The first matrix with a NaN or infinite entry raises ValueError, naming
    the matrix as ``not_hermitian`` does before " is not Hermitian".  Then
    each matrix must be Hermitian within 1e-8 and have no eigenvalue below
    PSD_FLOOR; one batched ``eigvalsh`` covers the stack.  The first failing
    matrix raises NonHermitianInput(``not_hermitian``) or
    NegativeEigenvalue(``negative``), formatted with its ``label`` (entry of
    ``labels``) and least eigenvalue ``w``.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if not np.isfinite(stack).all():
        k = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))[0]
        name = not_hermitian.split(" is not Hermitian")[0].format(label=labels[k])
        raise ValueError(f"{name} has non-finite entries")
    # halved first (exact for normal floats), so neither the Hermitian test
    # nor the symmetrized sum can overflow for finite entries
    half, adj = stack / 2.0, stack.conj().transpose(0, 2, 1) / 2.0
    hermitian = np.abs(half - adj).max(axis=(1, 2)) <= 0.5e-8
    w = np.linalg.eigvalsh(half + adj)[:, 0]
    # a NaN eigenvalue is a fault too
    fault = np.flatnonzero(~hermitian | ~(w >= PSD_FLOOR))
    if fault.size:
        k = fault[0]
        if not hermitian[k]:
            raise NonHermitianInput(not_hermitian.format(label=labels[k]))
        raise NegativeEigenvalue(negative.format(label=labels[k], w=w[k]))


def clamp_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Apply the library-wide PSD policy to an eigenvalue vector."""
    if np.min(w) < PSD_FLOOR:
        raise NegativeEigenvalue(f"eigenvalue {np.min(w):.3e} below {PSD_FLOOR}")
    return np.where(w < 0.0, 0.0, w)


def matrix_sqrt_psd(a) -> np.ndarray:
    """Hermitian PSD square root B with B·B ≈ A.

    Eigenvalues in [-1e-9, 0] are clamped to zero; more negative ones raise
    NegativeEigenvalue.
    """
    res = herm_eig(a)
    w = clamp_psd_eigenvalues(res.eigenvalues)
    V = res.eigenvectors
    B = (V * np.sqrt(w)) @ V.conj().T
    return (B + B.conj().T) / 2.0
