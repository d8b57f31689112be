import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elglm.structured import (
    KINDS,
    Banded,
    Circulant,
    Dense,
    Diagonal,
    Kronecker,
    ScaledIdentity,
    StructuredMatrix,
    add_structured,
    from_config,
)

RNG = np.random.default_rng(20260825)


def _spd(p, rng):
    A = rng.standard_normal((p, p))
    return A @ A.T / p + np.eye(p)


def _circulant_first_row(p, rng):
    # symmetric first row with strictly positive spectrum
    half = rng.uniform(0.0, 0.3, size=p // 2 + 1)
    row = np.zeros(p)
    row[0] = 2.0
    for k in range(1, p // 2 + 1):
        row[k] = half[k]
        row[-k] = half[k]
    return row


def make_cases():
    rng = np.random.default_rng(7)
    band = [np.array([2.0, 2.2, 2.5, 2.1, 2.3, 2.4]), rng.uniform(0.1, 0.4, 5)]
    return [
        ScaledIdentity(5, 1.7),
        Diagonal(rng.uniform(0.5, 3.0, 7)),
        Banded(band),
        Circulant(_circulant_first_row(8, rng)),
        Dense(_spd(6, rng)),
        Kronecker([Dense(_spd(3, rng)), Diagonal(rng.uniform(0.5, 2.0, 4))]),
    ]


CASES = make_cases()
IDS = [type(m).__name__ for m in CASES]


@pytest.mark.parametrize("m", CASES, ids=IDS)
def test_matvec_matches_dense(m):
    v = RNG.standard_normal(m.p)
    np.testing.assert_allclose(m.matvec(v), m.to_dense() @ v, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", CASES, ids=IDS)
@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_solve_shifted_matches_dense(m, shift):
    b = RNG.standard_normal(m.p)
    x = m.solve_shifted(shift, b)
    np.testing.assert_allclose(
        (m.to_dense() + shift * np.eye(m.p)) @ x, b, rtol=1e-9, atol=1e-9
    )


@pytest.mark.parametrize("m", CASES, ids=IDS)
@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_logdet_shifted_matches_slogdet(m, shift):
    sign, ld = np.linalg.slogdet(m.to_dense() + shift * np.eye(m.p))
    assert sign > 0
    assert m.logdet_shifted(shift) == pytest.approx(ld, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("m", CASES, ids=IDS)
def test_scaled_and_config_round_trip(m):
    np.testing.assert_allclose(m.scaled(2.5).to_dense(), 2.5 * m.to_dense(), rtol=1e-12)
    back = from_config(m.to_config())
    assert type(back) is type(m)
    np.testing.assert_allclose(back.to_dense(), m.to_dense(), rtol=1e-12)


# the first field each kind's constructor reads
_FIRST_FIELD = {
    "scaled_identity": "dim",
    "diagonal": "values",
    "banded": "diagonals",
    "circulant": "first_row",
    "dense": "values",
    "kronecker": "factors",
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_from_config_missing_field_names_kind_and_field(kind):
    assert set(_FIRST_FIELD) == set(KINDS)
    names_both = f"{kind} .*'{_FIRST_FIELD[kind]}'"
    with pytest.raises(ValueError, match=names_both):
        from_config({"kind": kind})
    # a Kronecker factor reports its own kind
    factors = [{"kind": kind}, ScaledIdentity(2, 1.0).to_config()]
    with pytest.raises(ValueError, match=names_both):
        from_config({"kind": "kronecker", "factors": factors})


@pytest.mark.parametrize("m", CASES, ids=IDS)
def test_wrong_length_vector_raises(m):
    with pytest.raises(ValueError):
        m.matvec(np.zeros(m.p + 1))


def test_scaled_identity_exact():
    m = ScaledIdentity(4, 2.0)
    np.testing.assert_array_equal(m.matvec(np.ones(4)), 2.0 * np.ones(4))
    assert m.logdet_shifted(1.0) == pytest.approx(4 * np.log(3.0))
    np.testing.assert_allclose(m.solve_shifted(1.0, np.ones(4)), np.ones(4) / 3.0)


def test_diagonal_singular_raises():
    m = Diagonal(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(np.linalg.LinAlgError):
        m.solve_shifted(0.0, np.ones(3))


def test_banded_rejects_indefinite_at_construction():
    bad = [np.ones(3), np.full(2, 1.1)]  # off-diagonal dominates
    with pytest.raises(np.linalg.LinAlgError):
        Banded(bad)


def test_circulant_asymmetric_first_row_rejected():
    row = np.array([2.0, 0.5, 0.1, 0.4])  # row[1] != row[-1]
    with pytest.raises(ValueError):
        Circulant(row)


def test_circulant_rank_deficient_logdet_raises():
    row = np.ones(4)  # spectrum (4, 0, 0, 0)
    c = Circulant(row)
    with pytest.raises(np.linalg.LinAlgError):
        c.logdet_shifted(0.0)
    # a positive shift regularizes it
    assert np.isfinite(c.logdet_shifted(0.5))


def test_dense_asymmetric_rejected():
    with pytest.raises(ValueError):
        Dense(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_kronecker_matvec_matches_kron():
    rng = np.random.default_rng(3)
    A, B = _spd(3, rng), _spd(4, rng)
    m = Kronecker([Dense(A), Dense(B)])
    v = rng.standard_normal(12)
    np.testing.assert_allclose(m.matvec(v), np.kron(A, B) @ v, rtol=1e-11)


def test_add_structured_preserves_kind():
    a = Diagonal(np.array([1.0, 2.0]))
    b = Diagonal(np.array([0.5, 0.5]))
    out = add_structured(a, b)
    assert isinstance(out, Diagonal)
    np.testing.assert_allclose(out.to_dense(), a.to_dense() + b.to_dense())

    c1 = Circulant(_circulant_first_row(6, np.random.default_rng(0)))
    c2 = Circulant(_circulant_first_row(6, np.random.default_rng(1)))
    assert isinstance(add_structured(c1, c2), Circulant)

    ident = ScaledIdentity(6, 0.3)
    assert isinstance(add_structured(c1, ident), Circulant)
    assert isinstance(add_structured(ident, c1), Circulant)


def test_add_structured_dense_fallback_and_dim_check():
    a = Dense(_spd(3, np.random.default_rng(0)))
    b = Diagonal(np.array([1.0, 1.0, 1.0]))
    out = add_structured(a, b)
    np.testing.assert_allclose(out.to_dense(), a.to_dense() + np.eye(3))
    with pytest.raises(ValueError):
        add_structured(a, ScaledIdentity(4, 1.0))


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=1, max_size=12),
    shift=st.floats(min_value=0.0, max_value=2.0),
    data=st.data(),
)
def test_solve_inverts_matvec(vals, shift, data):
    m = Diagonal(np.array(vals))
    b = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-5, max_value=5), min_size=len(vals), max_size=len(vals)
            )
        )
    )
    x = m.solve_shifted(shift, b)
    np.testing.assert_allclose(m.matvec(x) + shift * x, b, rtol=1e-9, atol=1e-9)
