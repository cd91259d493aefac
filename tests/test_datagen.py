"""Sampling, centering, covariance estimation, and CSV persistence."""
from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slcd import (
    BUILTIN_IDS,
    Dataset,
    Gaussian,
    Hyperparams,
    ScmSpec,
    SolverControls,
    VariableDef,
    builtin_spec,
    center,
    induced_covariance,
    load_dataset,
    sample,
    sample_covariance,
    save_dataset,
    slcd,
)
from slcd import datagen

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
        assert sum(v.role == "independent" for v in spec.variables) == independents[ds_id]


def test_builtin_spec_4_definition() -> None:
    spec = builtin_spec(4)
    assert spec.n == 6
    assert [i for i, v in enumerate(spec.variables) if v.role == "independent"] == [0, 1, 2]
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
    assert not back.centered
    meta = json.loads((tmp_path / "ds.json").read_text())
    for key in ("spec_name", "seed", "m"):
        assert key in meta
    assert "centered" not in meta


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


def _savetxt_bytes(path, X) -> bytes:
    """The reference writer: numpy's row-by-row np.savetxt."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, X.T, fmt="%.17g", delimiter=",")
    return path.read_bytes()


def _save_bytes(path, X) -> bytes:
    save_dataset(Dataset(X=X, spec_name="w", seed=0), str(path))
    return path.read_bytes()


BLOCK = datagen._WRITE_BLOCK


@pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("n", range(1, 8))
def test_csv_writer_matches_savetxt_across_blocks(tmp_path, n, m) -> None:
    # random bit patterns cover every finite, subnormal and NaN class;
    # the special values are then planted at random cells
    rng = np.random.default_rng([n, m])
    X = rng.integers(0, 2 ** 64, size=(n, m), dtype=np.uint64).view(np.float64)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.5])
    cells = rng.random((n, m)) < 0.2
    X[cells] = rng.choice(special, size=int(cells.sum()))
    assert _save_bytes(tmp_path / "a.csv", X) == _savetxt_bytes(tmp_path / "b.csv", X)


ANY_DOUBLES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, np.nan, np.inf, -np.inf, 5e-324])


@settings(max_examples=60)
@given(arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 12)),
              elements=ANY_DOUBLES),
       st.integers(1, 5))
def test_csv_writer_matches_savetxt_property(tmp_path_factory, X, block) -> None:
    """With the block size shrunk, small matrices cross several block
    boundaries and still give savetxt's bytes."""
    d = tmp_path_factory.mktemp("w")
    with mock.patch.object(datagen, "_WRITE_BLOCK", block):
        written = _save_bytes(d / "a.csv", X)
    assert written == _savetxt_bytes(d / "b.csv", X)


def test_csv_layout_one_sample_per_line(tmp_path) -> None:
    ds = sample(builtin_spec(2), 10, 0)
    csv_path, _ = save_dataset(ds, str(tmp_path / "d.csv"))
    lines = [l for l in Path(csv_path).read_text(encoding="utf-8").splitlines() if l]
    assert len(lines) == 10
    assert len(lines[0].split(",")) == 4


def test_load_without_sidecar(tmp_path) -> None:
    ds = sample(builtin_spec(1), 20, 0)
    csv_path, sidecar = save_dataset(ds, str(tmp_path / "d.csv"))
    (tmp_path / "d.json").unlink()
    back = load_dataset(csv_path)
    np.testing.assert_array_equal(back.X, ds.X)


def test_sidecar_centered_claim_is_ignored(tmp_path) -> None:
    # shifted data whose sidecar (as earlier versions wrote it) says they
    # are centred must solve as the same file read without a sidecar
    ds = sample(builtin_spec(2), 200, 0)
    shifted = Dataset(X=ds.X + 3.0, spec_name=ds.spec_name, seed=ds.seed)
    claimed, _ = save_dataset(shifted, str(tmp_path / "claimed.csv"))
    meta = json.loads((tmp_path / "claimed.json").read_text())
    (tmp_path / "claimed.json").write_text(json.dumps({**meta, "centered": True}))
    bare, _ = save_dataset(shifted, str(tmp_path / "bare.csv"))
    (tmp_path / "bare.json").unlink()
    hp, controls = Hyperparams(restarts=2, iterations=1), SolverControls(max_inner_steps=20)
    a = slcd(load_dataset(claimed), hp, controls)
    b = slcd(load_dataset(bare), hp, controls)
    assert a.D_opt.tobytes() == b.D_opt.tobytes()


def test_false_centered_flag_is_not_trusted() -> None:
    # shifted data flagged as centred must be centred and solved as the
    # same data without the flag
    ds = sample(builtin_spec(2), 1000, 0)
    flagged = Dataset(X=ds.X + 3.0, spec_name=ds.spec_name, seed=ds.seed, centered=True)
    bare = Dataset(X=ds.X + 3.0, spec_name=ds.spec_name, seed=ds.seed)
    assert center(flagged).X.tobytes() == center(bare).X.tobytes()
    hp, controls = Hyperparams(restarts=2, iterations=1), SolverControls(max_inner_steps=20)
    a = slcd(flagged, hp, controls)
    b = slcd(bare, hp, controls)
    assert a.D_opt.tobytes() == b.D_opt.tobytes()


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
