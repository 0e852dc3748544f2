"""Principal-axis basis used for rotation ensembles."""

from __future__ import annotations

import numpy as np


def pca_basis(samples: np.ndarray) -> np.ndarray:
    """Orthonormal eigenbasis of the sample covariance.

    Columns are unit eigenvectors in descending eigenvalue order; each is
    sign-fixed so its largest-magnitude entry is positive. A zero covariance
    (all points identical) yields the identity basis.

    Parameters
    ----------
    samples : (n, d) array, n >= 2
    """
    # np.cov's bits depend on the memory layout; one layout gives one basis.
    samples = np.asfortranarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("pca_basis needs at least 2 sample rows")
    d = samples.shape[1]
    cov = np.cov(samples, rowvar=False, ddof=1).reshape(d, d)
    if not np.any(np.abs(cov) > 1e-15):
        return np.eye(d)
    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")
    basis = vectors[:, order]
    # Sign convention: largest-|entry| of each axis points positive.
    peaks = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[peaks, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs
