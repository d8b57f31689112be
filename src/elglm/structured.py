"""Structured symmetric PSD matrices with fast shifted solves and log-determinants.

Covariance and prior-precision matrices in this toolkit are rarely dense:
stimulus ensembles give scaled-identity, diagonal, banded, circulant, or
Kronecker (spatiotemporally separable) covariances. Every kind supports the
same three operations

    matvec(v), solve_shifted(shift, b), logdet_shifted(shift)

where ``shift`` is a scalar, so estimators can solve systems of the form
(S + shift I) x = b without ever densifying when the structure allows it.
Costs: O(p) for diagonal kinds, O(p log p) for circulant (FFT),
O(p b^2) for bandwidth-b banded, O(p^2)..O(p^3) dense.

All instances are immutable after construction (backing arrays are marked
read-only) and construction enforces the PSD rules of each kind, so a value
that exists is safe to share across threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "StructuredMatrix",
    "ScaledIdentity",
    "Diagonal",
    "Banded",
    "Circulant",
    "Dense",
    "Kronecker",
    "add_structured",
    "from_config",
    "KINDS",
]

# Circulant eigenvalues in (-CIRC_EIG_TOL * max, 0] are clamped to zero;
# anything more negative is genuine indefiniteness and rejected.
CIRC_EIG_TOL = 1e-10


def _freeze(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


class StructuredMatrix:
    """Base class; concrete kinds implement the dense conversion and fast paths."""

    p: int

    @property
    def shape(self):
        return (self.p, self.p)

    def _check_vec(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.p},)")
        return v

    def matvec(self, v):
        raise NotImplementedError

    def solve_shifted(self, shift, b):
        """Solve (S + shift I) x = b for a scalar shift, exploiting structure.

        Raises ``np.linalg.LinAlgError`` if the shifted matrix is singular or
        indefinite; there is no silent pseudo-inverse fallback.
        """
        raise NotImplementedError

    def logdet_shifted(self, shift=0.0):
        raise NotImplementedError

    def to_dense(self):
        raise NotImplementedError

    def scaled(self, a: float) -> "StructuredMatrix":
        """Return a * S as the same structured kind. Requires a >= 0."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


class ScaledIdentity(StructuredMatrix):
    def __init__(self, p: int, scale: float):
        if p < 1:
            raise ValueError("dimension must be >= 1")
        if scale < 0:
            raise ValueError("scale must be nonnegative for a PSD matrix")
        self.p = int(p)
        self.scale = float(scale)

    def matvec(self, v):
        return self.scale * self._check_vec(v)

    def solve_shifted(self, shift, b):
        b = self._check_vec(b)
        d = self.scale + float(shift)
        if d <= 0:
            raise np.linalg.LinAlgError("shifted scaled identity is singular or indefinite")
        return b / d

    def logdet_shifted(self, shift=0.0):
        d = np.full(self.p, self.scale + float(shift))
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted scaled identity is singular or indefinite")
        return float(np.sum(np.log(d)))

    def to_dense(self):
        return self.scale * np.eye(self.p)

    def scaled(self, a):
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        return ScaledIdentity(self.p, a * self.scale)

    def to_config(self):
        return {"kind": "scaled_identity", "dim": self.p, "scale": self.scale}


class Diagonal(StructuredMatrix):
    def __init__(self, values):
        values = _freeze(values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("diagonal values must be a nonempty 1-D array")
        if np.any(values < 0):
            raise ValueError("diagonal entries must be nonnegative for a PSD matrix")
        self.values = values
        self.p = values.size

    def matvec(self, v):
        return self.values * self._check_vec(v)

    def solve_shifted(self, shift, b):
        b = self._check_vec(b)
        d = self.values + float(shift)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted diagonal matrix is singular or indefinite")
        return b / d

    def logdet_shifted(self, shift=0.0):
        d = self.values + float(shift)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted diagonal matrix is singular or indefinite")
        return float(np.sum(np.log(d)))

    def to_dense(self):
        return np.diag(self.values)

    def scaled(self, a):
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        return Diagonal(a * self.values)

    def to_config(self):
        return {"kind": "diagonal", "values": self.values.tolist()}


class Banded(StructuredMatrix):
    """Symmetric banded matrix stored as its main and upper off-diagonals.

    ``diagonals[k]`` holds the k-th superdiagonal (length p - k); bandwidth is
    ``len(diagonals) - 1``. Solves and log-determinants go through the banded
    Cholesky factorization (cost O(p b^2)).
    """

    def __init__(self, diagonals):
        if len(diagonals) == 0:
            raise ValueError("need at least the main diagonal")
        self.diagonals = tuple(_freeze(d) for d in diagonals)
        self.p = self.diagonals[0].size
        self.bandwidth = len(self.diagonals) - 1
        if self.bandwidth >= self.p:
            raise ValueError("bandwidth must be smaller than the dimension")
        for k, d in enumerate(self.diagonals):
            if d.shape != (self.p - k,):
                raise ValueError(f"diagonal {k} has length {d.size}, expected {self.p - k}")
        # PSD-by-construction rule for this kind: the banded Cholesky must succeed.
        self._cholesky_ab(0.0)

    def _ab(self, shift):
        """scipy upper-banded storage of self + shift I."""
        b, p = self.bandwidth, self.p
        ab = np.zeros((b + 1, p))
        ab[b, :] = self.diagonals[0] + float(shift)
        for k in range(1, b + 1):
            ab[b - k, k:] = self.diagonals[k]
        return ab

    def _cholesky_ab(self, shift):
        try:
            return scipy.linalg.cholesky_banded(self._ab(shift), lower=False)
        except scipy.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(f"banded matrix (plus shift) not positive definite: {e}")

    def matvec(self, v):
        v = self._check_vec(v)
        out = self.diagonals[0] * v
        for k in range(1, self.bandwidth + 1):
            d = self.diagonals[k]
            out[:-k] += d * v[k:]
            out[k:] += d * v[:-k]
        return out

    def solve_shifted(self, shift, b):
        b = self._check_vec(b)
        return scipy.linalg.cho_solve_banded((self._cholesky_ab(shift), False), b)

    def logdet_shifted(self, shift=0.0):
        cb = self._cholesky_ab(shift)
        return 2.0 * float(np.sum(np.log(cb[-1, :])))

    def to_dense(self):
        m = np.diag(self.diagonals[0])
        for k in range(1, self.bandwidth + 1):
            m += np.diag(self.diagonals[k], k) + np.diag(self.diagonals[k], -k)
        return m

    def scaled(self, a):
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        return Banded([a * d for d in self.diagonals])

    def to_config(self):
        return {
            "kind": "banded",
            "bandwidth": self.bandwidth,
            "diagonals": [d.tolist() for d in self.diagonals],
        }


class Circulant(StructuredMatrix):
    """Symmetric circulant matrix defined by its first row; all ops via FFT."""

    def __init__(self, first_row):
        first_row = _freeze(first_row)
        if first_row.ndim != 1 or first_row.size < 1:
            raise ValueError("first row must be a nonempty 1-D array")
        p = first_row.size
        sym = first_row[(-np.arange(p)) % p]
        if not np.allclose(first_row, sym, rtol=1e-10, atol=1e-12):
            raise ValueError("circulant first row must be symmetric (c[k] == c[p-k])")
        eig = np.fft.rfft(first_row).real
        top = max(np.max(eig), 0.0)
        floor = -CIRC_EIG_TOL * top
        if np.any(eig < floor):
            raise ValueError("circulant matrix is not positive semidefinite")
        self.first_row = first_row
        self.p = p
        self._eig = np.clip(eig, 0.0, None)  # roundoff-negative eigenvalues clamp to 0
        self._eig.setflags(write=False)

    def matvec(self, v):
        v = self._check_vec(v)
        return np.fft.irfft(self._eig * np.fft.rfft(v), n=self.p)

    def solve_shifted(self, shift, b):
        b = self._check_vec(b)
        d = self._eig + float(shift)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted circulant matrix is singular or indefinite")
        return np.fft.irfft(np.fft.rfft(b) / d, n=self.p)

    def logdet_shifted(self, shift=0.0):
        d = self._eig + float(shift)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted circulant matrix is singular or indefinite")
        # rfft folds conjugate pairs; unfold multiplicities for the true determinant
        mult = np.full(d.size, 2.0)
        mult[0] = 1.0
        if self.p % 2 == 0:
            mult[-1] = 1.0
        return float(np.sum(mult * np.log(d)))

    def to_dense(self):
        return scipy.linalg.circulant(self.first_row)  # symmetric: column == row

    def scaled(self, a):
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        return Circulant(a * self.first_row)

    def to_config(self):
        return {"kind": "circulant", "first_row": self.first_row.tolist()}


class Dense(StructuredMatrix):
    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("dense matrix must be square")
        if not np.allclose(values, values.T, rtol=1e-8, atol=1e-10):
            raise ValueError("dense matrix must be symmetric")
        self.values = _freeze(0.5 * (values + values.T))
        self.p = values.shape[0]
        # PSD rule for this kind: plain Cholesky must succeed (no pivoted fallback).
        try:
            self._chol = scipy.linalg.cho_factor(self.values)
        except scipy.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(f"dense matrix is not positive definite: {e}")

    def matvec(self, v):
        return self.values @ self._check_vec(v)

    def _chol_shifted(self, shift):
        """Cholesky factor of S + shift I; the constructor's at shift 0."""
        shift = float(shift)
        if shift == 0.0:
            return self._chol
        try:
            return scipy.linalg.cho_factor(self.values + shift * np.eye(self.p))
        except scipy.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(f"shifted matrix not positive definite: {e}")

    def solve_shifted(self, shift, b):
        b = self._check_vec(b)
        return scipy.linalg.cho_solve(self._chol_shifted(shift), b)

    def logdet_shifted(self, shift=0.0):
        return 2.0 * float(np.sum(np.log(np.diag(self._chol_shifted(shift)[0]))))

    def to_dense(self):
        return self.values.copy()

    def scaled(self, a):
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        return Dense(a * self.values)

    def to_config(self):
        return {"kind": "dense", "values": self.values.tolist()}


class Kronecker(StructuredMatrix):
    """Kronecker product of structured factors, e.g. spatial x temporal covariances.

    Matvecs apply each factor along its own tensor mode. Scalar-shifted solves
    and log-determinants use per-factor eigendecompositions (factors are small
    by design).
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("need at least two factors")
        if not all(isinstance(f, StructuredMatrix) for f in factors):
            raise ValueError("factors must be StructuredMatrix instances")
        self.factors = factors
        self.p = int(np.prod([f.p for f in factors]))

    @property
    def _dims(self):
        return tuple(f.p for f in self.factors)

    def matvec(self, v):
        v = self._check_vec(v)
        t = v.reshape(self._dims)
        for axis, f in enumerate(self.factors):
            t = np.moveaxis(t, axis, 0)
            flat = t.reshape(f.p, -1)
            cols = np.stack([f.matvec(flat[:, j]) for j in range(flat.shape[1])], axis=1)
            t = np.moveaxis(cols.reshape(t.shape), 0, axis)
        return t.reshape(self.p)

    def _factor_eigh(self):
        if not hasattr(self, "_eigh_cache"):
            self._eigh_cache = [np.linalg.eigh(f.to_dense()) for f in self.factors]
        return self._eigh_cache

    def _kron_eigs(self):
        eigs = np.ones(1)
        for w, _ in self._factor_eigh():
            eigs = np.multiply.outer(eigs, w).reshape(-1)
        return eigs

    def _rotate(self, v, transpose):
        t = v.reshape(self._dims)
        for axis, (_, q) in enumerate(self._factor_eigh()):
            m = q.T if transpose else q
            t = np.moveaxis(np.tensordot(m, np.moveaxis(t, axis, 0), axes=(1, 0)), 0, axis)
        return t.reshape(self.p)

    def solve_shifted(self, shift, b):
        b = self._check_vec(b)
        d = self._kron_eigs() + float(shift)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted Kronecker matrix is singular or indefinite")
        return self._rotate(self._rotate(b, transpose=True) / d, transpose=False)

    def logdet_shifted(self, shift=0.0):
        d = self._kron_eigs() + float(shift)
        if np.any(d <= 0):
            raise np.linalg.LinAlgError("shifted Kronecker matrix is singular or indefinite")
        return float(np.sum(np.log(d)))

    def to_dense(self):
        m = np.ones((1, 1))
        for f in self.factors:
            m = np.kron(m, f.to_dense())
        return m

    def scaled(self, a):
        if a < 0:
            raise ValueError("scale factor must be nonnegative")
        return Kronecker((self.factors[0].scaled(a),) + self.factors[1:])

    def to_config(self):
        return {"kind": "kronecker", "factors": [f.to_config() for f in self.factors]}


def add_structured(a: StructuredMatrix, b: StructuredMatrix) -> StructuredMatrix:
    """Sum of two structured matrices, keeping the tightest shared structure.

    Matching kinds stay structured (diagonal + diagonal, circulant + circulant,
    banded + banded); a scaled identity folds into anything with a stored
    diagonal; everything else densifies.
    """
    if a.p != b.p:
        raise ValueError("dimension mismatch")
    if isinstance(a, ScaledIdentity):
        a, b = b, a
    if isinstance(b, ScaledIdentity):
        s = b.scale
        if isinstance(a, ScaledIdentity):
            return ScaledIdentity(a.p, a.scale + s)
        if isinstance(a, Diagonal):
            return Diagonal(a.values + s)
        if isinstance(a, Circulant):
            row = a.first_row.copy()
            row[0] += s
            return Circulant(row)
        if isinstance(a, Banded):
            return Banded([a.diagonals[0] + s] + [d for d in a.diagonals[1:]])
    if isinstance(a, Diagonal) and isinstance(b, Diagonal):
        return Diagonal(a.values + b.values)
    if isinstance(a, Circulant) and isinstance(b, Circulant):
        return Circulant(a.first_row + b.first_row)
    if isinstance(a, Banded) and isinstance(b, Banded):
        if a.bandwidth < b.bandwidth:
            a, b = b, a
        diags = [d.copy() for d in a.diagonals]
        for k, d in enumerate(b.diagonals):
            diags[k] += d
        return Banded(diags)
    if isinstance(a, Diagonal) and isinstance(b, Banded):
        a, b = b, a
    if isinstance(a, Banded) and isinstance(b, Diagonal):
        return Banded([a.diagonals[0] + b.values] + [d for d in a.diagonals[1:]])
    return Dense(a.to_dense() + b.to_dense())


# config constructors by kind tag; the CLI schema takes its kind enum from the keys
KINDS = {
    "scaled_identity": lambda c: ScaledIdentity(c["dim"], c["scale"]),
    "diagonal": lambda c: Diagonal(c["values"]),
    "banded": lambda c: Banded(c["diagonals"]),
    "circulant": lambda c: Circulant(c["first_row"]),
    "dense": lambda c: Dense(c["values"]),
    "kronecker": lambda c: Kronecker([from_config(f) for f in c["factors"]]),
}


def from_config(config: dict) -> StructuredMatrix:
    """Rebuild a StructuredMatrix from its tagged JSON record."""
    kind = config.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown structured-matrix kind: {kind!r}")
    try:
        return KINDS[kind](config)
    except KeyError as e:
        raise ValueError(f"{kind} matrix config is missing the field {e.args[0]!r}") from None
