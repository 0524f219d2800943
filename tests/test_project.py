import numpy as np
import pytest
from scipy.linalg import hadamard

from rpcluster import (
    ProjectorCalibration,
    apply,
    explicit_projector,
    is_identity,
    jl_distortion_survey,
    make_projector,
    project_columns,
    random_orthonormal_basis,
    generate,
    UnionModel,
)


def dense_oracle(proj):
    """Materialize a projector from its stored rows/signs, bypassing the fast paths."""
    m, p = proj.m, proj.p
    if proj.kind == "gaussian":
        return proj.dense
    n = proj.padded_dim
    if proj.kind == "fourier_sign":
        # n == m here, no padding for the DFT variant
        f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        full = np.real(f) * proj.signs
    else:
        # signs cover the zero-padded input, columns past m never see data
        full = (hadamard(n).astype(float) * proj.signs)[:, :m]
    return full[proj.rows] * proj.scale


def test_gaussian_norm_preserved_on_average():
    # E||Phi x||^2 = ||x||^2 for the 1/sqrt(p) scaling
    rng = np.random.default_rng(0)
    vals = np.empty(1000)
    for i in range(1000):
        proj = make_projector("gaussian", 150, 100, seed=i)
        x = rng.standard_normal(150)
        x /= np.linalg.norm(x)
        vals[i] = np.linalg.norm(project_columns(proj, x)) ** 2
    assert 0.9 < vals.mean() < 1.1


def test_gaussian_entry_variance():
    proj = make_projector("gaussian", 200, 150, seed=4)
    assert abs(proj.dense.var() * 150 - 1.0) < 0.05


def test_hadamard_full_rate_is_isometry():
    proj = make_projector("hadamard_sign", 64, 64, seed=1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(64)
        assert abs(np.linalg.norm(project_columns(proj, x)) - np.linalg.norm(x)) < 1e-10


def test_fourier_matches_dense_partial_transform():
    proj = make_projector("fourier_sign", 8, 3, seed=9)
    x = np.random.default_rng(2).standard_normal((8, 5))
    assert np.max(np.abs(project_columns(proj, x) - dense_oracle(proj) @ x)) < 1e-10


@pytest.mark.parametrize("kind", ["fourier_sign", "hadamard_sign"])
@pytest.mark.parametrize("m", [8, 13, 16, 20, 33, 64])
def test_fast_transforms_match_dense(kind, m):
    p = max(1, m // 2)
    proj = make_projector(kind, m, p, seed=m)
    x = np.random.default_rng(m).standard_normal((m, 7))
    ref = dense_oracle(proj) @ x
    assert np.max(np.abs(project_columns(proj, x) - ref)) < 1e-10
    assert np.max(np.abs(project_columns(proj, np.eye(m)) - dense_oracle(proj))) < 1e-10


@pytest.mark.parametrize("kind", ["gaussian", "fourier_sign", "hadamard_sign"])
def test_projection_linear(kind):
    proj = make_projector(kind, 24, 10, seed=3)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(24)
    y = rng.standard_normal(24)
    lhs = project_columns(proj, 2.5 * x - 0.3 * y)
    rhs = 2.5 * project_columns(proj, x) - 0.3 * project_columns(proj, y)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_duplicate_columns_stay_duplicates():
    proj = make_projector("fourier_sign", 16, 6, seed=0)
    x = np.random.default_rng(1).standard_normal(16)
    out = project_columns(proj, np.column_stack([x, x]))
    assert np.array_equal(out[:, 0], out[:, 1])


def test_projector_deterministic():
    a = make_projector("hadamard_sign", 30, 12, seed=7)
    b = make_projector("hadamard_sign", 30, 12, seed=7)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.signs, b.signs)
    eye = np.eye(30)
    assert np.array_equal(project_columns(a, eye), project_columns(b, eye))
    c = make_projector("hadamard_sign", 30, 12, seed=8)
    assert not np.array_equal(project_columns(a, eye), project_columns(c, eye))


def test_row_subset_valid():
    proj = make_projector("fourier_sign", 50, 20, seed=2)
    assert len(set(proj.rows.tolist())) == 20
    assert proj.rows.min() >= 0 and proj.rows.max() < 50
    assert set(np.unique(proj.signs)) <= {-1, 1}


def test_apply_carries_labels():
    model = UnionModel((random_orthonormal_basis(20, 2, 0),), (5,), seed=1)
    data = generate(model)
    proj = make_projector("gaussian", 20, 8, seed=0)
    out = apply(proj, data)
    assert out.points.shape == (8, 5)
    assert np.array_equal(out.labels, data.labels)


def test_identity_override():
    eye = explicit_projector(np.eye(6))
    assert is_identity(eye)
    assert is_identity(None)
    x = np.random.default_rng(0).standard_normal((6, 3))
    assert np.array_equal(project_columns(eye, x), x)
    assert not is_identity(make_projector("gaussian", 6, 6, seed=0))
    assert not is_identity(explicit_projector(np.ones((2, 2))))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        make_projector("gaussian", 10, 11, seed=0)
    with pytest.raises(ValueError):
        make_projector("gaussian", 10, 0, seed=0)
    with pytest.raises(ValueError):
        make_projector("dct_sign", 10, 5, seed=0)
    proj = make_projector("gaussian", 10, 5, seed=0)
    with pytest.raises(ValueError):
        project_columns(proj, np.zeros((9, 2)))


def test_survey_rate_zero_for_huge_threshold():
    rate = jl_distortion_survey("gaussian", 30, 10, t=10.0, trials=50, seed=0)
    assert rate == 0.0


def test_survey_rate_zero_at_full_hadamard_rate():
    rate = jl_distortion_survey("hadamard_sign", 32, 32, t=0.01, trials=50, seed=0)
    assert rate == 0.0


def test_survey_rate_decreases_with_p():
    rates = []
    for p in (25, 50, 100, 200):
        reps = [
            jl_distortion_survey("gaussian", 256, p, t=0.3, trials=200, seed=s)
            for s in range(10)
        ]
        rates.append(np.mean(reps))
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] > rates[-1]


def test_tail_bound_formula():
    cal = ProjectorCalibration(c_tilde=0.25)
    assert abs(cal.tail_bound(0.5, 100) - 2 * np.exp(-0.25 * 0.25 * 100)) < 1e-15
    tighter = ProjectorCalibration(c_tilde=1.0)
    assert tighter.tail_bound(0.5, 100) < cal.tail_bound(0.5, 100)
    with pytest.raises(ValueError):
        ProjectorCalibration(c_tilde=0.0)
