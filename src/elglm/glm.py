"""GLM datasets and the exact log-likelihood with gradient and Hessian action.

The dataset caches the sufficient statistics s = X'r, N_s = sum(r), N once,
which is all the linear term of the likelihood ever needs; the nonlinear term
is what the EL approximation targets. It also caches, on first use, X'X for
the exact Gaussian evidence and one read-only float32 copy of (X, r).

Passes that only steer read the float32 copy: the Hessian actions of the
truncated-Newton CG (the twin action that ``ExactObjective.value_grad_hess``
returns) and the leapfrog force of the exact chain
(``ExactObjective.grad32``). They read half the bytes, and a float32 result
that is not finite is taken again in float64. Passes that score stay
float64: values, gradients, ``hess_dense`` and ``exact_loglik`` with its own
Hessian action.

Likelihood values are reported up to const(theta): per-datum terms that do
not involve (theta0, theta), e.g. -log r_n! or -r_n^2/(2 sigma^2), are
dropped consistently across families and likelihood modes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os

import numpy as np

from .families import CanonicalFamily, family_from_config

__all__ = [
    "GlmDataset",
    "GlmParams",
    "LikelihoodEval",
    "exact_loglik",
    "ExactObjective",
    "simulate_responses",
    "save_dataset",
    "load_dataset",
    "load_dataset_csv",
]


@dataclasses.dataclass(frozen=True)
class GlmParams:
    """Filter theta (length p) and scalar offset theta0."""

    theta: np.ndarray
    theta0: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        if not (np.all(np.isfinite(theta)) and np.isfinite(self.theta0)):
            raise ValueError("parameters must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta0", float(self.theta0))

    @property
    def p(self):
        return self.theta.size


class GlmDataset:
    """Design matrix X (N x p), responses r (N,), family; suff stats cached.

    Attributes
    ----------
    s : ndarray, shape (p,)
        X' r, the only data contraction the EL ever needs.
    N_s : float
        Total response sum (spike count for point-process families).
    gram : ndarray, shape (p, p)
        X' X, computed on first use.
    single : (ndarray, ndarray)
        Read-only float32 copies of X and r, made on first use.
    """

    def __init__(self, X, r, family: CanonicalFamily):
        # a C-ordered float64 X, such as a mapped stem, is kept without a copy
        X = np.ascontiguousarray(X, dtype=float)
        r = np.ascontiguousarray(r, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if r.shape != (X.shape[0],):
            raise ValueError(f"r has shape {r.shape}, expected ({X.shape[0]},)")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        family.validate_responses(r)
        X.setflags(write=False)
        r.setflags(write=False)
        self.X = X
        self.r = r
        self.family = family
        self.N, self.p = X.shape
        self.s = X.T @ r
        self.s.setflags(write=False)
        self.N_s = float(np.sum(r))

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """X'X, computed on first use; X is read-only, so it never goes stale."""
        gram = self.X.T @ self.X
        gram.setflags(write=False)
        return gram

    @functools.cached_property
    def single(self):
        """Float32 (X, r), made on first use and shared by every objective on
        this dataset; read-only, like X and r."""
        X, r = self.X.astype(np.float32), self.r.astype(np.float32)
        X.setflags(write=False)
        r.setflags(write=False)
        return X, r

    def __repr__(self):
        return f"GlmDataset(N={self.N}, p={self.p}, family={self.family!r})"


@dataclasses.dataclass
class LikelihoodEval:
    value: float
    grad: np.ndarray  # length p+1, ordered (theta0, theta)
    hess_action: "callable"  # v (p+1,) -> H v (p+1,)
    d2: np.ndarray = None  # an exact pass's curvature weights weight * G''(u)


def _checked_offset(data: GlmDataset, offset) -> np.ndarray:
    offset = np.asarray(offset, dtype=float)
    if offset.shape != (data.N,):
        raise ValueError(f"offset has shape {offset.shape}, expected ({data.N},)")
    return offset


def _linear_predictor(data: GlmDataset, params: GlmParams, offset):
    if params.p != data.p:
        raise ValueError(f"theta has length {params.p}, expected {data.p}")
    u = params.theta0 + data.X @ params.theta
    if offset is not None:
        u = u + _checked_offset(data, offset)
    return u


def _finite(values, u, what):
    """values, after checking that every entry is finite; else raise naming the
    first offending data index."""
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise FloatingPointError(f"non-finite {what} at data index {bad} (u={u[bad]})")
    return values


def _value(data: GlmDataset, u, gu) -> float:
    fam = data.family
    return fam.scale * (float(u @ data.r) - fam.weight * float(np.sum(gu)))


def _grad(data: GlmDataset, dgu) -> np.ndarray:
    fam = data.family
    resid = data.r - fam.weight * dgu
    grad = np.empty(data.p + 1)
    grad[0] = fam.scale * float(np.sum(resid))
    grad[1:] = fam.scale * (data.X.T @ resid)
    return grad


def _value_grad(data: GlmDataset, u):
    with np.errstate(over="ignore"):  # finiteness is checked explicitly
        gu = _finite(data.family.g(u), u, "G(u)")
    return _value(data, u, gu), _grad(data, data.family.dg(u))


def exact_loglik(data: GlmDataset, params: GlmParams, offset=None) -> LikelihoodEval:
    """Exact log-likelihood over (theta0, theta), up to const(theta).

    value = scale * sum_n [ u_n r_n - weight * G(u_n) ] with
    u = theta0 + X theta (+ offset). The gradient is length p+1 ordered
    (theta0, theta); hess_action applies the (p+1)x(p+1) Hessian to a vector
    in O(Np) without forming it. Raises on non-finite intermediates, naming
    the offending data index.
    """
    fam = data.family
    u = _linear_predictor(data, params, offset)
    value, grad = _value_grad(data, u)
    d2 = fam.weight * fam.d2g(u)
    scale = fam.scale

    def hess_action(v):
        v = np.asarray(v, dtype=float)
        if v.shape != (data.p + 1,):
            raise ValueError(f"vector has shape {v.shape}, expected ({data.p + 1},)")
        t = d2 * (v[0] + data.X @ v[1:])
        out = np.empty(data.p + 1)
        out[0] = -scale * float(np.sum(t))
        out[1:] = -scale * (data.X.T @ t)
        return out

    return LikelihoodEval(value=value, grad=grad, hess_action=hess_action, d2=d2)


def _exact_value(data: GlmDataset, params: GlmParams, offset=None) -> float:
    """``exact_loglik(...).value`` alone, bit for bit: one matvec, no gradient."""
    u = _linear_predictor(data, params, offset)
    with np.errstate(over="ignore"):
        gu = _finite(data.family.g(u), u, "G(u)")
    return _value(data, u, gu)


def _exact_grad(data: GlmDataset, params: GlmParams, offset=None) -> np.ndarray:
    """``exact_loglik(...).grad`` alone, bit for bit; raises where G'(u) is not
    finite."""
    u = _linear_predictor(data, params, offset)
    with np.errstate(over="ignore"):
        dgu = _finite(data.family.dg(u), u, "G'(u)")
    return _grad(data, dgu)


class ExactObjective:
    """Log-likelihood plus an optional Gaussian prior, as a function of a vector.

    ``fit_offset=False`` freezes theta0 and exposes a p-dimensional
    objective; ``fit_offset=True`` exposes the joint (theta0, theta) problem
    over a (p+1)-vector ordered (theta0, theta). ``R`` adds the ridge
    -theta'R theta/2 on the filter; the offset always carries a flat prior.
    Subclasses swap the likelihood by overriding its passes: ``_loglik``
    (value, gradient and Hessian action), ``_loglik_value``,
    ``_loglik_value_grad``, ``_loglik_grad`` and ``_loglik_grad32``.
    """

    def __init__(self, data: GlmDataset, fit_offset=False, theta0=0.0, offset=None, R=None):
        self.data = data
        self.fit_offset = bool(fit_offset)
        self.theta0 = float(theta0)
        self.offset = offset
        self.R = R
        self.dim = data.p + 1 if fit_offset else data.p
        self._theta = slice(int(self.fit_offset), None)  # the filter's coordinates in x

    def params(self, x) -> GlmParams:
        x = np.asarray(x, dtype=float)
        if self.fit_offset:
            return GlmParams(theta=x[1:], theta0=x[0])
        return GlmParams(theta=x, theta0=self.theta0)

    def vector(self, params: GlmParams) -> np.ndarray:
        """Inverse of ``params``; a frozen offset is dropped."""
        x = np.concatenate(([params.theta0], params.theta)) if self.fit_offset else params.theta
        if x.size != self.dim:
            raise ValueError(f"params give a vector of length {x.size}, expected {self.dim}")
        return np.array(x, dtype=float)

    def _split(self, x):
        """(theta0, theta) read straight from x, without ``params``' checks:
        for the leapfrog force, which falls back to a checked float64 pass
        where its result is not finite."""
        x = np.asarray(x, dtype=float)
        if self.fit_offset:
            return float(x[0]), x[1:]
        return self.theta0, x

    @functools.cached_property
    def _offset32(self):
        if self.offset is None:
            return None
        return _checked_offset(self.data, self.offset).astype(np.float32)

    def _loglik(self, x) -> LikelihoodEval:
        return exact_loglik(self.data, self.params(x), offset=self.offset)

    def _loglik_value(self, x) -> float:
        return _exact_value(self.data, self.params(x), offset=self.offset)

    def _loglik_value_grad(self, x):
        return _value_grad(self.data, _linear_predictor(self.data, self.params(x), self.offset))

    def _loglik_grad(self, x) -> np.ndarray:
        return _exact_grad(self.data, self.params(x), offset=self.offset)

    def _loglik_grad32(self, x) -> np.ndarray:
        """``_loglik_grad`` computed on the dataset's float32 copies of X and r
        and a float32 offset (half the bytes per pass; relative error near
        1e-6), returned as float64. Where the float32 pass is not finite
        (Poisson's exp overflows past u = 88.7) it returns the float64 pass,
        so the result is a deterministic function of x."""
        data, fam = self.data, self.data.family
        X, r = data.single
        theta0, theta = self._split(x)
        grad = np.empty(data.p + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            u = theta0 + X @ theta.astype(np.float32)
            if self.offset is not None:
                u += self._offset32
            resid = r - fam.weight * fam.dg(u)
            grad[0] = np.sum(resid, dtype=float)
            grad[1:] = X.T @ resid
        if not np.all(np.isfinite(grad)):
            return self._loglik_grad(x)
        return fam.scale * grad

    def _hess_action32(self, ev: LikelihoodEval):
        """``ev.hess_action`` with its two matvecs on the float32 design and
        ev's float64 curvature weights rounded to float32 once; where its
        result is not finite, ``ev.hess_action`` itself. A pass that reads no
        design (``ev.d2`` is None) keeps its own action."""
        if ev.d2 is None:
            return ev.hess_action
        data, scale = self.data, self.data.family.scale
        with np.errstate(over="ignore"):
            d2 = ev.d2.astype(np.float32)

        def hess_action(v):
            X = data.single[0]  # made by the first call, not by the pass
            v = np.asarray(v, dtype=float)
            out = np.empty(v.size)
            with np.errstate(over="ignore", invalid="ignore"):
                t = d2 * (float(v[0]) + X @ v[1:].astype(np.float32))
                out[0] = np.sum(t, dtype=float)
                out[1:] = X.T @ t
            if not np.all(np.isfinite(out)):
                return ev.hess_action(v)
            return -scale * out

        return hess_action

    def _prior_value(self, x, v):
        if self.R is None:
            return v
        th = np.asarray(x, dtype=float)[self._theta]
        return v - 0.5 * float(th @ self.R.matvec(th))

    def _prior_grad(self, x, g):
        """g (length p+1) restricted to x's coordinates, plus the prior's gradient."""
        g = g if self.fit_offset else g[1:]
        if self.R is not None:
            g[self._theta] -= self.R.matvec(np.asarray(x, dtype=float)[self._theta])
        return g

    def value(self, x):
        """Value-only pass; equals ``value_grad(x)[0]`` bit for bit."""
        return self._prior_value(x, self._loglik_value(x))

    def grad(self, x):
        """Gradient-only pass; equals ``value_grad(x)[1]`` bit for bit."""
        return self._prior_grad(x, self._loglik_grad(x))

    def grad32(self, x):
        """``grad`` from the single-precision likelihood pass (see
        ``_loglik_grad32``), with the prior's term added in float64."""
        return self._prior_grad(x, self._loglik_grad32(x))

    def value_grad(self, x):
        """(value, gradient) from one pass without the curvature weights;
        equals ``value_grad_hess(x)[:2]`` bit for bit."""
        v, g = self._loglik_value_grad(x)
        return self._prior_value(x, v), self._prior_grad(x, g)

    def value_grad_hess(self, x):
        """(value, gradient, Hessian action, the action's single-precision
        twin) from one float64 likelihood pass, which also gives the twin's
        curvature weights. The twin (see ``_hess_action32``) runs its matvecs
        on the float32 design, for CG solves that need only a forcing term's
        accuracy."""
        ev = self._loglik(x)
        return (
            self._prior_value(x, ev.value),
            self._prior_grad(x, ev.grad),
            self._action(ev.hess_action),
            self._action(self._hess_action32(ev)),
        )

    def hess_action(self, x):
        return self._action(self._loglik(x).hess_action)

    def _action(self, loglik_action):
        R, block = self.R, self._theta

        def action(v):
            v = np.asarray(v, dtype=float)
            if self.fit_offset:
                out = loglik_action(v)
            else:
                out = loglik_action(np.concatenate(([0.0], v)))[1:]
            if R is not None:
                out[block] -= R.matvec(v[block])
            return out

        return action

    def hess_dense(self, x):
        """Explicit Hessian as one weighted gram product, O(N p^2)."""
        data, fam = self.data, self.data.family
        u = _linear_predictor(data, self.params(x), self.offset)
        d2 = fam.scale * fam.weight * fam.d2g(u)
        Xw = data.X * d2[:, None]
        Htt = -(data.X.T @ Xw)
        if self.R is not None:
            Htt -= self.R.to_dense()
        if not self.fit_offset:
            return Htt
        H = np.empty((data.p + 1, data.p + 1))
        H[0, 0] = -float(np.sum(d2))
        H[0, 1:] = H[1:, 0] = -Xw.sum(axis=0)
        H[1:, 1:] = Htt
        return H


def simulate_responses(family: CanonicalFamily, X, params: GlmParams, seed) -> np.ndarray:
    """Draw r per row of X under the family's observation model; deterministic by seed."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    if params.p != X.shape[1]:
        raise ValueError("theta length does not match X columns")
    rng = np.random.default_rng(seed)
    u = params.theta0 + X @ params.theta
    return family.simulate(u, rng)


# Dataset file format: one float64 little-endian binary holding X followed by
# r, plus a JSON sidecar (same stem, .json) carrying {N, p, order, family
# params}. ``order`` "C" stores X row by row, the layout of GlmDataset.X, so
# a stem is written and mapped without a copy; stems without the key hold X
# column by column ("F"), the layout of older files, and load with one copy.
# CSV import covers small hand-made data.


def save_dataset(data: GlmDataset, stem: str):
    """Write <stem>.bin (X row-major, then r) and <stem>.json; returns the
    pair of paths. The binary is written beside its target and renamed over
    it, so a dataset still mapped from an older file of that stem keeps its
    bytes."""
    bin_path, meta_path = stem + ".bin", stem + ".json"
    with open(bin_path + ".tmp", "wb") as f:
        data.X.tofile(f)
        data.r.tofile(f)
    os.replace(bin_path + ".tmp", bin_path)
    meta = {"N": data.N, "p": data.p, "order": "C", **data.family.to_config()}
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    return bin_path, meta_path


def load_dataset(stem: str) -> GlmDataset:
    """Read a stem written by :func:`save_dataset`. The binary is mapped
    read-only; a row-major X is used in place, a column-major one (no
    ``order`` key) is copied once into row-major order."""
    bin_path, meta_path = stem + ".bin", stem + ".json"
    with open(meta_path) as f:
        meta = json.load(f)
    N, p = int(meta["N"]), int(meta["p"])
    order = meta.get("order", "F")
    if order not in ("C", "F"):
        raise ValueError(
            f"{os.path.basename(meta_path)}: unknown order {order!r}, expected 'C' or 'F'"
        )
    family = family_from_config(meta)
    found = os.path.getsize(bin_path) // 8
    if found != N * p + N:
        raise ValueError(
            f"{os.path.basename(bin_path)}: expected {N * p + N} float64 values, found {found}"
        )
    raw = np.memmap(bin_path, dtype="<f8", mode="r")
    X = raw[: N * p].reshape((N, p), order=order)
    r = raw[N * p :]
    return GlmDataset(X, r, family)


def load_dataset_csv(path: str, family: CanonicalFamily) -> GlmDataset:
    """CSV import: every column but the last is a covariate, last column is r.

    A single header line is skipped if present (detected by non-numeric
    first field).
    """
    with open(path) as f:
        first = f.readline()
    try:
        float(first.split(",")[0])
        skip = 0
    except ValueError:
        skip = 1
    table = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if table.shape[1] < 2:
        raise ValueError("CSV needs at least one covariate column plus the response column")
    return GlmDataset(table[:, :-1], table[:, -1], family)
