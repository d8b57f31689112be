import itertools
import json
import shutil

import numpy as np
import pytest

import elglm.glm as glm
from elglm.el import AnalyticExponential, ELObjective
from elglm.families import Bernoulli, Gaussian, Poisson
from elglm.glm import (
    ExactObjective,
    GlmDataset,
    GlmParams,
    exact_loglik,
    load_dataset,
    load_dataset_csv,
    save_dataset,
    simulate_responses,
)
from elglm.structured import Diagonal


def _dataset(family, seed=0, N=120, p=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, p))
    theta = rng.standard_normal(p) * 0.4
    params = GlmParams(theta, theta0=-0.3)
    r = simulate_responses(family, X, params, seed + 1)
    return GlmDataset(X, r, family), params


def _naive_loglik(data, params):
    fam = data.family
    total = 0.0
    for n in range(data.N):
        u = params.theta0 + float(data.X[n] @ params.theta)
        total += data.r[n] * u - fam.weight * fam.g(np.array([u]))[0]
    return fam.scale * total


@pytest.mark.parametrize("family", [Gaussian(sigma2=1.7), Poisson(dt=0.3), Bernoulli()])
def test_value_matches_naive_sum(family):
    data, params = _dataset(family)
    ev = exact_loglik(data, params)
    assert ev.value == pytest.approx(_naive_loglik(data, params), rel=1e-12)


@pytest.mark.parametrize("family", [Gaussian(), Poisson(), Bernoulli()])
def test_gradient_matches_finite_differences(family):
    data, params = _dataset(family, seed=3)
    ev = exact_loglik(data, params)
    eps = 1e-6
    # offset coordinate first, then theta
    g0 = (
        exact_loglik(data, GlmParams(params.theta, params.theta0 + eps)).value
        - exact_loglik(data, GlmParams(params.theta, params.theta0 - eps)).value
    ) / (2 * eps)
    assert ev.grad[0] == pytest.approx(g0, rel=1e-5, abs=1e-7)
    for j in range(data.p):
        step = np.zeros(data.p)
        step[j] = eps
        gj = (
            exact_loglik(data, GlmParams(params.theta + step, params.theta0)).value
            - exact_loglik(data, GlmParams(params.theta - step, params.theta0)).value
        ) / (2 * eps)
        assert ev.grad[1 + j] == pytest.approx(gj, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("family", [Gaussian(), Poisson(), Bernoulli()])
def test_hess_action_matches_gradient_differences(family):
    data, params = _dataset(family, seed=4)
    ev = exact_loglik(data, params)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(data.p + 1)
    eps = 1e-6
    up = exact_loglik(
        data, GlmParams(params.theta + eps * v[1:], params.theta0 + eps * v[0])
    ).grad
    dn = exact_loglik(
        data, GlmParams(params.theta - eps * v[1:], params.theta0 - eps * v[0])
    ).grad
    np.testing.assert_allclose(ev.hess_action(v), (up - dn) / (2 * eps), rtol=1e-4, atol=1e-6)


def test_hess_dense_matches_hess_action():
    data, params = _dataset(Poisson(), seed=5)
    ridge = Diagonal(np.linspace(0.5, 2.5, data.p))
    for fit_offset, R in itertools.product((False, True), (None, ridge)):
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, R=R)
        x = (
            np.concatenate(([params.theta0], params.theta))
            if fit_offset
            else params.theta.copy()
        )
        H = obj.hess_dense(x)
        act = obj.hess_action(x)
        for j in range(H.shape[0]):
            e = np.zeros(H.shape[0])
            e[j] = 1.0
            np.testing.assert_allclose(H[:, j], act(e), rtol=1e-10, atol=1e-12)
        if R is not None:
            # the ridge enters the value, gradient and Hessian on theta only
            flat = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0)
            th = params.theta
            block = slice(1, None) if fit_offset else slice(None)
            H_flat = flat.hess_dense(x)
            H_flat[block, block] -= R.to_dense()
            np.testing.assert_allclose(H, H_flat, rtol=1e-14)
            v, g = obj.value_grad(x)
            v_flat, g_flat = flat.value_grad(x)
            g_flat[block] -= R.matvec(th)
            assert v == pytest.approx(v_flat - 0.5 * float(th @ R.matvec(th)), rel=1e-14)
            assert obj.value(x) == v
            np.testing.assert_allclose(g, g_flat, rtol=1e-14)


@pytest.mark.parametrize("family", [Gaussian(sigma2=1.7), Poisson(dt=0.3), Bernoulli()])
def test_partial_passes_equal_value_grad_bit_for_bit(family):
    """value() and grad() are value_grad() split in two, to the last bit, with
    and without a fitted offset, a ridge and an offset vector."""
    data, params = _dataset(family, seed=6)
    ridge = Diagonal(np.linspace(0.5, 2.5, data.p))
    offset = np.random.default_rng(9).standard_normal(data.N) * 0.2
    for fit_offset, R, off in itertools.product((False, True), (None, ridge), (None, offset)):
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, offset=off, R=R)
        x = obj.vector(params)
        v, g = obj.value_grad(x)
        assert obj.value(x) == v
        np.testing.assert_array_equal(obj.grad(x), g)
    # an overflowing G(u) still raises from the value-only pass, naming the datum
    if isinstance(family, Poisson):
        obj = ExactObjective(data, fit_offset=True)
        x = np.concatenate(([800.0], params.theta))
        with pytest.raises(FloatingPointError, match="G\\(u\\) at data index 0"):
            obj.value(x)
        with pytest.raises(FloatingPointError, match="data index 0"):
            obj.grad(x)


@pytest.mark.parametrize("family", [Gaussian(sigma2=1.7), Poisson(dt=0.3), Bernoulli()])
def test_grad32_agrees_with_grad(family):
    """The single-precision gradient pass agrees with the float64 one to 1e-5
    relative, with and without a fitted offset, a ridge and an offset vector,
    and returns float64."""
    assert family.dg(np.zeros(3, dtype=np.float32)).dtype == np.float32
    data, params = _dataset(family, seed=6, N=400, p=6)
    ridge = Diagonal(np.linspace(0.5, 2.5, data.p))
    offset = np.random.default_rng(9).standard_normal(data.N) * 0.2
    rng = np.random.default_rng(10)
    for fit_offset, R, off in itertools.product((False, True), (None, ridge), (None, offset)):
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, offset=off, R=R)
        x = obj.vector(params) + 0.3 * rng.standard_normal(obj.dim)
        g, g32 = obj.grad(x), obj.grad32(x)
        assert g32.dtype == np.float64 and g32.shape == g.shape
        assert np.linalg.norm(g32 - g) <= 1e-5 * np.linalg.norm(g)
        assert obj.grad32(x).tobytes() == g32.tobytes()  # deterministic in x


@pytest.mark.parametrize("family", [Gaussian(sigma2=1.7), Poisson(dt=0.3), Bernoulli()])
def test_value_grad_is_its_own_pass(family, monkeypatch):
    """value_grad equals value_grad_hess(x)[:2] bit for bit, with and without
    a fitted offset, a ridge and an offset vector, and computes no curvature
    weights G''(u) and no exact_loglik pass."""
    data, params = _dataset(family, seed=6)
    ridge = Diagonal(np.linspace(0.5, 2.5, data.p))
    offset = np.random.default_rng(9).standard_normal(data.N) * 0.2
    cases = list(itertools.product((False, True), (None, ridge), (None, offset)))
    want = []
    for fit_offset, R, off in cases:
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, offset=off, R=R)
        v, g = obj.value_grad_hess(obj.vector(params))[:2]
        want.append((v, g.copy()))

    def refuse(*args, **kwargs):
        raise AssertionError("value_grad computed more than a value and a gradient")

    monkeypatch.setattr(type(family), "d2g", refuse)
    monkeypatch.setattr(glm, "exact_loglik", refuse)
    for (fit_offset, R, off), (v_want, g_want) in zip(cases, want):
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, offset=off, R=R)
        v, g = obj.value_grad(obj.vector(params))
        assert v == v_want
        assert g.tobytes() == g_want.tobytes()


@pytest.mark.parametrize("family", [Gaussian(sigma2=1.7), Poisson(dt=0.3), Bernoulli()])
def test_single_precision_hessian_twin_agrees_with_the_action(family):
    """value_grad_hess returns, besides the float64 Hessian action, a twin
    that runs on the dataset's float32 design with the pass's curvature
    weights: it agrees with the action to 1e-5 relative, with and without a
    fitted offset, a ridge and an offset vector. Both read one float32 copy
    of X, made by the twin's first call and shared by every objective."""
    data, params = _dataset(family, seed=6, N=400, p=6)
    ridge = Diagonal(np.linspace(0.5, 2.5, data.p))
    offset = np.random.default_rng(9).standard_normal(data.N) * 0.2
    rng = np.random.default_rng(10)
    for fit_offset, R, off in itertools.product((False, True), (None, ridge), (None, offset)):
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, offset=off, R=R)
        _, _, action, twin = obj.value_grad_hess(obj.vector(params))
        if not fit_offset and R is None and off is None:  # the first case
            assert "single" not in vars(data)
            twin(np.zeros(obj.dim))
            X32 = data.single[0]
        for _ in range(3):
            v = rng.standard_normal(obj.dim)
            a, b = action(v), twin(v)
            assert b.dtype == np.float64 and b.shape == a.shape
            assert np.linalg.norm(b - a) <= 1e-5 * np.linalg.norm(a)
    assert data.single[0] is X32
    assert X32.dtype == data.single[1].dtype == np.float32 and not X32.flags.writeable
    np.testing.assert_array_equal(X32, data.X.astype(np.float32))


def test_single_precision_hessian_twin_falls_back_where_float32_overflows():
    """Curvature weights beyond float32's range (exp(100)) make the float32
    twin non-finite: it returns the float64 action bit for bit."""
    X = np.zeros((4, 2))
    X[:, 0] = [1.0, 0.5, 0.0, -1.0]
    data = GlmDataset(X, np.array([3.0, 1.0, 0.0, 2.0]), Poisson())
    obj = ExactObjective(data, fit_offset=True, R=Diagonal(np.array([1.0, 2.0])))
    v = np.array([0.3, -1.0, 2.0])
    _, _, action, twin = obj.value_grad_hess(np.array([0.0, 100.0, 0.5]))
    np.testing.assert_array_equal(twin(v), action(v))
    _, _, action, twin = obj.value_grad_hess(np.array([0.0, 1.0, 0.5]))
    assert twin(v).tobytes() != action(v).tobytes()


def test_leapfrog_forces_build_no_per_call_objects(monkeypatch):
    """grad32 and the EL gradient read (theta0, theta) straight from the
    vector: no GlmParams per call. The EL gradient equals the full EL pass's
    gradient bit for bit, and a non-finite x still raises from the checked
    pass."""
    data, params = _dataset(Poisson(dt=0.3), seed=6, N=400, p=6)
    C, R = Diagonal(np.linspace(1.0, 2.0, data.p)), Diagonal(np.linspace(0.5, 2.5, data.p))
    rng = np.random.default_rng(11)
    objs = []
    for fit_offset in (False, True):
        exact = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, R=R)
        el = ELObjective(
            AnalyticExponential(C), data, fit_offset=fit_offset, theta0=params.theta0, R=R
        )
        x = exact.vector(params) + 0.1 * rng.standard_normal(exact.dim)
        want = el._prior_grad(x, el._loglik(x).grad.copy())
        objs.append((exact, el, x, want))
    made = []
    post_init = GlmParams.__post_init__
    monkeypatch.setattr(GlmParams, "__post_init__", lambda self: made.append(1) or post_init(self))
    for exact, el, x, want in objs:
        exact.grad32(x)
        assert el.grad(x).tobytes() == want.tobytes()
    assert made == []
    for exact, el, x, _ in objs:
        bad = x.copy()
        bad[-1] = np.nan
        for force in (exact.grad32, el.grad):
            with pytest.raises(ValueError, match="finite"):
                force(bad)


def test_grad32_falls_back_to_grad_where_float32_overflows():
    """At u near 100, exp overflows in float32 but not in float64: the pass
    returns the float64 gradient bit for bit, ridge included."""
    X = np.zeros((4, 2))
    X[:, 0] = [1.0, 0.5, 0.0, -1.0]
    data = GlmDataset(X, np.array([3.0, 1.0, 0.0, 2.0]), Poisson())
    obj = ExactObjective(data, fit_offset=True, R=Diagonal(np.array([1.0, 2.0])))
    x = np.array([0.0, 100.0, 0.5])
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(np.float32(100.0))) and np.isfinite(np.exp(100.0))
    np.testing.assert_array_equal(obj.grad32(x), obj.grad(x))
    # away from the overflow the single-precision pass is a different number
    assert obj.grad32(x / 100).tobytes() != obj.grad(x / 100).tobytes()


def test_objective_vector_round_trip():
    data, params = _dataset(Poisson(), seed=5)
    rng = np.random.default_rng(8)
    for fit_offset in (False, True):
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0)
        x = rng.standard_normal(obj.dim)
        np.testing.assert_array_equal(obj.vector(obj.params(x)), x)
        back = obj.params(obj.vector(params))
        np.testing.assert_array_equal(back.theta, params.theta)
        assert back.theta0 == params.theta0
        with pytest.raises(ValueError, match="length"):
            obj.vector(GlmParams(np.zeros(data.p + 1), theta0=params.theta0))


def test_offset_vector_shifts_predictor():
    data, params = _dataset(Poisson(), seed=6)
    off = np.full(data.N, 0.25)
    shifted = GlmParams(params.theta, params.theta0 + 0.25)
    assert exact_loglik(data, params, offset=off).value == pytest.approx(
        exact_loglik(data, shifted).value, rel=1e-12
    )


def test_nonfinite_predictor_error_names_index():
    X = np.zeros((3, 1))
    X[2, 0] = 1.0
    data = GlmDataset(X, np.array([0.0, 1.0, 2.0]), Poisson())
    with pytest.raises(FloatingPointError, match="2"):
        exact_loglik(data, GlmParams(np.array([800.0])))


def test_dataset_validates_responses_per_family():
    X = np.ones((2, 1))
    with pytest.raises(ValueError):
        GlmDataset(X, np.array([0.5, 1.0]), Poisson())
    with pytest.raises(ValueError):
        GlmDataset(X, np.array([0.0, 2.0]), Bernoulli())
    GlmDataset(X, np.array([0.5, -1.2]), Gaussian())


def test_sufficient_stats_cached_and_read_only():
    data, _ = _dataset(Gaussian(), seed=7)
    np.testing.assert_allclose(data.s, data.X.T @ data.r)
    assert data.N_s == pytest.approx(float(np.sum(data.r)))
    with pytest.raises(ValueError):
        data.s[0] = 0.0


def test_simulate_deterministic_and_family_typed():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((500, 3))
    params = GlmParams(np.array([0.2, -0.1, 0.4]))
    for fam in (Gaussian(), Poisson(), Bernoulli()):
        a = simulate_responses(fam, X, params, 9)
        b = simulate_responses(fam, X, params, 9)
        np.testing.assert_array_equal(a, b)
    r = simulate_responses(Bernoulli(), X, params, 9)
    assert set(np.unique(r)) <= {0.0, 1.0}


def test_save_load_round_trip(tmp_path):
    data, _ = _dataset(Poisson(dt=0.5), seed=8)
    stem = tmp_path / "ds"
    save_dataset(data, str(stem))
    back = load_dataset(str(stem))
    np.testing.assert_array_equal(back.X, data.X)
    np.testing.assert_array_equal(back.r, data.r)
    assert type(back.family) is Poisson
    assert back.family.dt == pytest.approx(0.5)


def test_stems_are_row_major_and_load_without_a_copy(tmp_path):
    """save_dataset writes X row by row and records the order in the
    sidecar; load_dataset maps the file and keeps X as a read-only view of
    it, with no copy."""
    data, _ = _dataset(Poisson(dt=0.5), seed=8)
    stem = str(tmp_path / "ds")
    save_dataset(data, stem)
    assert json.loads((tmp_path / "ds.json").read_text())["order"] == "C"
    assert (tmp_path / "ds.bin").read_bytes() == data.X.tobytes() + data.r.tobytes()
    back = load_dataset(stem)
    assert back.X.flags.c_contiguous and not back.X.flags.owndata and not back.X.flags.writeable
    assert back.X.tobytes() == data.X.tobytes() and back.r.tobytes() == data.r.tobytes()


def test_column_major_stems_without_an_order_load_the_same_data(tmp_path):
    """A stem in the older layout (X column by column, no ``order`` key)
    loads the X and r of its row-major twin, copied once into row order; an
    unknown order raises."""
    data, _ = _dataset(Poisson(dt=0.5), seed=8)
    save_dataset(data, str(tmp_path / "rows"))
    with open(tmp_path / "cols.bin", "wb") as f:
        f.write(np.asfortranarray(data.X).tobytes(order="F"))
        f.write(data.r.tobytes())
    meta = {"N": data.N, "p": data.p, "family": "poisson", "dt": 0.5}
    (tmp_path / "cols.json").write_text(json.dumps(meta))
    cols, rows = load_dataset(str(tmp_path / "cols")), load_dataset(str(tmp_path / "rows"))
    assert cols.X.tobytes() == rows.X.tobytes() == data.X.tobytes()
    assert cols.r.tobytes() == rows.r.tobytes() == data.r.tobytes()
    assert cols.X.flags.c_contiguous and cols.X.flags.owndata
    shutil.copy(tmp_path / "rows.bin", tmp_path / "bad.bin")
    (tmp_path / "bad.json").write_text(json.dumps({**meta, "order": "K"}))
    with pytest.raises(ValueError, match="order 'K'"):
        load_dataset(str(tmp_path / "bad"))


def test_saving_over_a_loaded_stem_keeps_the_loaded_data(tmp_path):
    """A stem rewritten while a dataset mapped from it is alive: the new file
    replaces the old one, whose mapped bytes the dataset keeps reading."""
    data, _ = _dataset(Poisson(), seed=8)
    stem = str(tmp_path / "ds")
    save_dataset(data, stem)
    loaded = load_dataset(stem)
    other, _ = _dataset(Poisson(), seed=9, N=10)
    save_dataset(other, stem)
    assert loaded.X.tobytes() == data.X.tobytes() and loaded.r.tobytes() == data.r.tobytes()
    assert load_dataset(stem).X.tobytes() == other.X.tobytes()


def test_csv_loader(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1.0,2.0,0\n0.5,-1.0,3\n")
    data = load_dataset_csv(str(path), Poisson())
    assert data.N == 2 and data.p == 2
    np.testing.assert_allclose(data.r, [0.0, 3.0])
    np.testing.assert_allclose(data.X[1], [0.5, -1.0])
