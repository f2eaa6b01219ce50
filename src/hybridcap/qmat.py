"""Dense complex Hermitian linear algebra kernel.

Spectral computations use NumPy's LAPACK routines: :func:`herm_eig` wraps
``numpy.linalg.eigh`` for single matrices with the library's Hermitian
check and error types, and :func:`check_psd_stack` validates a whole stack
of matrices from the rows of one batched ``eigvalsh`` (:func:`psd_rows`),
which the spec reader computes once for all the matrices of a spec.  The
entropy paths in :mod:`hybridcap.hybrid` call ``eigvalsh`` and ``eigh``
directly on stacks of posterior matrices and of zero-padded hybrid-state
blocks.  Two calls on bit-identical input give bit-identical output.

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


def psd_rows(stack) -> tuple:
    """(finite, hermitian, spectra, ok) of each matrix of a (k, d, d) stack.

    finite: no NaN or infinite entry; hermitian: max|A - A†| <= 1e-8;
    spectra: the (k, d) ascending eigenvalues of (A + A†)/2 from one batched
    ``eigvalsh``, those of the zero matrix for a non-finite A; ok: finite,
    Hermitian and no eigenvalue below PSD_FLOOR (nor NaN).
    """
    stack = np.asarray(stack, dtype=np.complex128)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        stack = np.where(finite[:, None, None], stack, 0.0)
    # halved first (exact for normal floats), so neither the Hermitian test
    # nor the symmetrized sum can overflow for finite entries
    half, adj = stack / 2.0, stack.conj().transpose(0, 2, 1) / 2.0
    hermitian = np.abs(half - adj).max(axis=(1, 2)) <= 0.5e-8
    w = np.linalg.eigvalsh(half + adj)
    return finite, hermitian, w, finite & hermitian & (w[:, 0] >= PSD_FLOOR)


def check_psd_stack(stack, not_hermitian: str, negative: str, labels=("",),
                    rows=None) -> np.ndarray:
    """Validate a (k, d, d) stack expected Hermitian PSD; return its (k, d) spectra, ascending.

    The first matrix with a NaN or infinite entry raises ValueError, naming
    the matrix as ``not_hermitian`` does before " is not Hermitian".  Then
    each matrix must be Hermitian within 1e-8 and have no eigenvalue below
    PSD_FLOOR.  The first failing matrix raises
    NonHermitianInput(``not_hermitian``) or NegativeEigenvalue(``negative``),
    formatted with its ``label`` (entry of ``labels``) and least eigenvalue
    ``w``.  ``rows`` are the stack's :func:`psd_rows` if already computed;
    the stack itself is then not read.
    """
    finite, hermitian, w, ok = psd_rows(stack) if rows is None else rows
    if ok.all():
        return w
    if not finite.all():
        k = finite.argmin()  # the first False
        name = not_hermitian.split(" is not Hermitian")[0].format(label=labels[k])
        raise ValueError(f"{name} has non-finite entries")
    k = ok.argmin()
    if not hermitian[k]:
        raise NonHermitianInput(not_hermitian.format(label=labels[k]))
    raise NegativeEigenvalue(negative.format(label=labels[k], w=w[k, 0]))


def matrix_sqrt_psd(a) -> np.ndarray:
    """Hermitian PSD square root B with B·B ≈ A.

    Eigenvalues in [-1e-9, 0] are clamped to zero; more negative ones raise
    NegativeEigenvalue.
    """
    res = herm_eig(a)
    w, V = res.eigenvalues, res.eigenvectors
    if w[0] < PSD_FLOOR:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below {PSD_FLOOR}")
    w = np.where(w < 0.0, 0.0, w)
    B = (V * np.sqrt(w)) @ V.conj().T
    return (B + B.conj().T) / 2.0
