"""Sampling, centering, covariance estimation, and CSV persistence."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slcd import (
    BUILTIN_IDS,
    Dataset,
    Gaussian,
    ScmSpec,
    VariableDef,
    builtin_spec,
    center,
    induced_covariance,
    load_dataset,
    sample,
    sample_covariance,
    save_dataset,
)

UNIFORM_VARIANCE = 25.0 / 12.0


def test_builtin_ids() -> None:
    assert BUILTIN_IDS == (1, 2, 3, 4, 5)


def test_builtin_spec_out_of_range() -> None:
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            builtin_spec(bad)


def test_builtin_dimensions_and_independent_counts() -> None:
    dims = {1: 3, 2: 4, 3: 5, 4: 6, 5: 7}
    independents = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    for ds_id in BUILTIN_IDS:
        spec = builtin_spec(ds_id)
        assert spec.n == dims[ds_id]
        assert len(spec.independent_indices) == independents[ds_id]


def test_builtin_spec_4_definition() -> None:
    spec = builtin_spec(4)
    assert spec.n == 6
    assert spec.independent_indices == (0, 1, 2)
    assert isinstance(spec.variables[2].dist, Gaussian)
    assert spec.variables[2].dist.variance == 4.0
    assert spec.variables[3].terms == ((0, 1.0), (2, 0.3))
    assert spec.variables[4].terms == ((0, 2.0), (1, 3.0))
    assert spec.variables[5].terms == ((1, 2.0), (2, 0.5))


def test_sample_shapes() -> None:
    ds = sample(builtin_spec(2), 250, 0)
    assert ds.X.shape == (4, 250)
    assert ds.n == 4 and ds.m == 250
    assert not ds.centered


def test_sample_rejects_m_zero() -> None:
    with pytest.raises(ValueError):
        sample(builtin_spec(1), 0, 0)


def test_dependent_columns_hold_exactly() -> None:
    # x4 = x1 + 2 x2 must hold to the last bit, column by column
    ds = sample(builtin_spec(2), 1000, 42)
    x = ds.X
    np.testing.assert_array_equal(x[3], x[0] + 2.0 * x[1])
    np.testing.assert_array_equal(x[2], 0.3 * x[0])


def test_exact_reconstruction_all_builtin() -> None:
    for ds_id in BUILTIN_IDS:
        spec = builtin_spec(ds_id)
        ds = sample(spec, 300, 7)
        D = spec.structural_matrix().entries
        residual = np.linalg.norm(ds.X - D @ ds.X)
        assert residual < 1e-12, f"dataset {ds_id}"


def test_determinism_bit_identical() -> None:
    a = sample(builtin_spec(3), 500, 123)
    b = sample(builtin_spec(3), 500, 123)
    assert a.X.tobytes() == b.X.tobytes()


def test_different_seeds_differ() -> None:
    a = sample(builtin_spec(3), 500, 1)
    b = sample(builtin_spec(3), 500, 2)
    assert not np.array_equal(a.X, b.X)


def test_dataset5_rank_is_three() -> None:
    ds = sample(builtin_spec(5), 1000, 11)
    s = np.linalg.svd(ds.X, compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) == 3


def test_independent_variance_sanity() -> None:
    # 4-standard-error bound on the sample variance of a N(0,4) row
    spec = ScmSpec(name="single_gauss", variables=(
        VariableDef.independent(Gaussian(0.0, 4.0)),))
    m = 100_000
    ds = sample(spec, m, 3)
    v = float(np.var(ds.X[0]))
    se = 4.0 * np.sqrt(2.0 / m)  # Var of sample variance of N(0, s2) is 2 s2^2 / m
    assert abs(v - 4.0) < 4.0 * se


def test_center_zero_mean_and_idempotent() -> None:
    ds = sample(builtin_spec(4), 400, 5)
    c1 = center(ds)
    assert c1.centered
    row_scale = np.max(np.abs(c1.X), axis=1)
    assert np.all(np.abs(c1.X.mean(axis=1)) < 1e-12 * np.maximum(row_scale, 1.0))
    c2 = center(c1)
    np.testing.assert_array_equal(c1.X, c2.X)


def test_center_constant_row_goes_to_zero() -> None:
    from slcd import Dataset

    X = np.vstack([np.full(50, 3.25), np.arange(50, dtype=float)])
    ds = Dataset(X=X, spec_name="const", seed=0)
    np.testing.assert_array_equal(center(ds).X[0], np.zeros(50))


def test_sample_covariance_matches_closed_form() -> None:
    # Var(x4) = Var(x1) + 4 Var(x2) = 5 * 25/12 on the 4-variable model
    ds = sample(builtin_spec(2), 100_000, 4)
    Sigma, sigma_diag = sample_covariance(ds)
    expected = 5.0 * UNIFORM_VARIANCE
    assert Sigma[3, 3] == pytest.approx(expected, rel=0.03)
    np.testing.assert_allclose(sigma_diag, np.diag(Sigma))
    np.testing.assert_allclose(Sigma, Sigma.T, atol=1e-12)


def test_sample_covariance_uses_1_over_m() -> None:
    from slcd import Dataset

    X = np.array([[1.0, -1.0]])
    ds = Dataset(X=X, spec_name="two_points", seed=0)
    Sigma, _ = sample_covariance(ds)
    # centered values are +-1; with the 1/m normalizer the variance is 1
    assert Sigma[0, 0] == pytest.approx(1.0)


def test_sample_covariance_near_induced() -> None:
    spec = builtin_spec(3)
    ds = sample(spec, 100_000, 4)
    Sigma, _ = sample_covariance(ds)
    induced = induced_covariance(spec.structural_matrix(), spec.analytic_variances())
    assert float(np.max(np.abs(Sigma - induced))) < 0.1


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=30))
def test_center_idempotence_property(seed: int, m: int) -> None:
    ds = sample(builtin_spec(1), m, seed)
    once = center(ds)
    twice = center(once)
    np.testing.assert_array_equal(once.X, twice.X)


def test_csv_round_trip(tmp_path) -> None:
    ds = sample(builtin_spec(2), 123, 99)
    csv_path = str(tmp_path / "ds.csv")
    written_csv, sidecar = save_dataset(ds, csv_path)
    back = load_dataset(written_csv)
    np.testing.assert_array_equal(back.X, ds.X)
    assert back.spec_name == ds.spec_name
    assert back.seed == ds.seed
    assert back.centered == ds.centered
    meta = json.loads((tmp_path / "ds.json").read_text())
    for key in ("spec_name", "seed", "m", "centered"):
        assert key in meta


FINITE_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
     np.finfo(float).max, -np.finfo(float).max])


@settings(max_examples=100)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
              elements=FINITE_DOUBLES))
def test_csv_round_trip_bit_identical(tmp_path_factory, X) -> None:
    """Every finite double, subnormals and signed zeros included, is
    written as 17 significant digits, one sample per line, and read back
    to the same bits."""
    ds = Dataset(X=X, spec_name="prop", seed=0)
    csv_path, _ = save_dataset(ds, str(tmp_path_factory.mktemp("csv") / "d.csv"))
    with open(csv_path, "rb") as fh:
        text = fh.read().decode("utf-8")
    assert text == "".join(",".join(f"{v:.17g}" for v in col) + "\n" for col in X.T)
    back = load_dataset(csv_path)
    assert back.X.shape == X.shape
    assert back.X.tobytes() == ds.X.tobytes()


def test_csv_layout_one_sample_per_line(tmp_path) -> None:
    ds = sample(builtin_spec(2), 10, 0)
    csv_path, _ = save_dataset(ds, str(tmp_path / "d.csv"))
    lines = [l for l in open(csv_path, encoding="utf-8").read().splitlines() if l]
    assert len(lines) == 10
    assert len(lines[0].split(",")) == 4


def test_load_without_sidecar(tmp_path) -> None:
    ds = sample(builtin_spec(1), 20, 0)
    csv_path, sidecar = save_dataset(ds, str(tmp_path / "d.csv"))
    (tmp_path / "d.json").unlink()
    back = load_dataset(csv_path)
    np.testing.assert_array_equal(back.X, ds.X)


def test_dataset_normalizes_memory_layout(tmp_path) -> None:
    from slcd import Dataset

    # A transposed (Fortran-ordered) source must come out C-contiguous,
    # otherwise BLAS rounding differs between loaded and sampled data.
    raw = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    assert not raw.flags["C_CONTIGUOUS"]
    ds = Dataset(X=raw, spec_name="layout", seed=0)
    assert ds.X.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(ds.X, raw)

    sampled = sample(builtin_spec(2), 50, 7)
    csv_path, _ = save_dataset(sampled, str(tmp_path / "d.csv"))
    back = load_dataset(csv_path)
    assert back.X.flags["C_CONTIGUOUS"]
