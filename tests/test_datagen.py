"""Sampling, centering, covariance estimation, and CSV persistence."""
from __future__ import annotations

import json
import re
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
    load_dataset,
    sample,
    sample_covariance,
    save_dataset,
    slcd,
)
from slcd import _csvio
from oracle_utils import analytic_variances, induced_covariance

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


def test_sample_rejects_m_zero() -> None:
    with pytest.raises(ValueError):
        sample(builtin_spec(1), 0, 0)


@pytest.mark.parametrize("m, seed, message", [
    (5, 1.7, "seed must be an integer, got 1.7"),
    (5, True, "seed must be an integer, got True"),
    (5, "1", "seed must be an integer, got '1'"),
    (5, -1, "seed must be non-negative, got -1"),
    (2.5, 1, "m must be an integer, got 2.5"),
])
def test_sample_rejects_a_non_integer_or_negative_seed_or_count(m, seed, message) -> None:
    """A seed or count that is not an integer is an error, as in
    SolverControls, rather than truncated to another seed's data."""
    with pytest.raises(ValueError, match=re.escape(message)):
        sample(builtin_spec(1), m, seed)


def test_sample_accepts_numpy_integers() -> None:
    assert sample(builtin_spec(1), np.int64(5), np.int64(1)).X.tobytes() == \
        sample(builtin_spec(1), 5, 1).X.tobytes()


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
    row_scale = np.max(np.abs(c1.X), axis=1)
    assert np.all(np.abs(c1.X.mean(axis=1)) < 1e-12 * np.maximum(row_scale, 1.0))
    c2 = center(c1)
    np.testing.assert_array_equal(c1.X, c2.X)


def test_center_constant_row_goes_to_zero() -> None:
    from slcd import Dataset

    X = np.vstack([np.full(50, 3.25), np.arange(50, dtype=float)])
    ds = Dataset(X=X)
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
    ds = Dataset(X=X)
    Sigma, _ = sample_covariance(ds)
    # centered values are +-1; with the 1/m normalizer the variance is 1
    assert Sigma[0, 0] == pytest.approx(1.0)


def test_sample_covariance_centres_as_center_does() -> None:
    # raw data are centred, data centred already are left as they are
    raw = sample(builtin_spec(3), 300, 1)
    for ds in (raw, center(raw)):
        Xc = center(ds).X
        Sigma, _ = sample_covariance(ds)
        assert Sigma.tobytes() == ((Xc @ Xc.T) / ds.m).tobytes()


def test_sample_covariance_near_induced() -> None:
    spec = builtin_spec(3)
    ds = sample(spec, 100_000, 4)
    Sigma, _ = sample_covariance(ds)
    induced = induced_covariance(spec.structural_matrix(), analytic_variances(spec))
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
    save_dataset(ds, csv_path)
    back = load_dataset(csv_path)
    np.testing.assert_array_equal(back.X, ds.X)


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
    ds = Dataset(X=X)
    csv_path = str(tmp_path_factory.mktemp("csv") / "d.csv")
    save_dataset(ds, csv_path)
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
    save_dataset(Dataset(X=X), str(path))
    return path.read_bytes()


BLOCK = _csvio._WRITE_BLOCK


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
    with mock.patch.object(_csvio, "_WRITE_BLOCK", block):
        written = _save_bytes(d / "a.csv", X)
    assert written == _savetxt_bytes(d / "b.csv", X)


def test_csv_layout_one_sample_per_line(tmp_path) -> None:
    ds = sample(builtin_spec(2), 10, 0)
    csv_path = str(tmp_path / "d.csv")
    save_dataset(ds, csv_path)
    lines = [l for l in Path(csv_path).read_text(encoding="utf-8").splitlines() if l]
    assert len(lines) == 10
    assert len(lines[0].split(",")) == 4


def test_load_without_sidecar(tmp_path) -> None:
    # save_dataset() writes the CSV alone, and load_dataset() needs no more
    ds = sample(builtin_spec(1), 20, 0)
    csv_path = str(tmp_path / "d.csv")
    assert save_dataset(ds, csv_path) is None
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    back = load_dataset(csv_path)
    np.testing.assert_array_equal(back.X, ds.X)


def test_sidecar_centered_claim_is_ignored(tmp_path) -> None:
    # shifted data beside a sidecar, be it one that earlier versions wrote
    # claiming they are centred or one that is no valid sidecar at all,
    # must solve as the same file read without a sidecar
    ds = sample(builtin_spec(2), 200, 0)
    shifted = Dataset(X=ds.X + 3.0)
    bare = str(tmp_path / "bare.csv")
    save_dataset(shifted, bare)
    hp, controls = Hyperparams(restarts=2, iterations=1), SolverControls(max_inner_steps=20)
    expected = slcd(load_dataset(bare), hp, controls).D_opt.tobytes()
    sidecars = [json.dumps({"format_version": 1, "spec_name": "dataset2", "seed": 0, "m": 200,
                            "centered": True}).encode(),
                b'{"seed": \xff', b'{"seed": 1.7}', b'{"spec_name": {"a": 1}}']
    for i, sidecar in enumerate(sidecars):
        csv_path = tmp_path / f"d{i}.csv"
        csv_path.write_bytes(Path(bare).read_bytes())
        (tmp_path / f"d{i}.json").write_bytes(sidecar)
        assert slcd(load_dataset(str(csv_path)), hp, controls).D_opt.tobytes() == expected


def test_dataset_normalizes_memory_layout(tmp_path) -> None:
    from slcd import Dataset

    # A transposed (Fortran-ordered) source must come out C-contiguous,
    # otherwise BLAS rounding differs between loaded and sampled data.
    raw = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    assert not raw.flags["C_CONTIGUOUS"]
    ds = Dataset(X=raw)
    assert ds.X.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(ds.X, raw)

    sampled = sample(builtin_spec(2), 50, 7)
    csv_path = str(tmp_path / "d.csv")
    save_dataset(sampled, csv_path)
    back = load_dataset(csv_path)
    assert back.X.flags["C_CONTIGUOUS"]


def test_dataset_keeps_read_only_arrays_and_copies_others(tmp_path) -> None:
    """Only a plain read-only array that no other array shares is kept:
    a writable array, a subclass and a view are copied into a plain,
    read-only ndarray."""
    X = np.arange(12.0).reshape(3, 4).copy()
    copied = Dataset(X=X)
    assert not np.shares_memory(copied.X, X) and not copied.X.flags.writeable
    view = X[:, :]
    view.flags.writeable = False
    from_view = Dataset(X=view).X
    assert not np.shares_memory(from_view, X)
    with pytest.warns(PendingDeprecationWarning):
        matrix = np.asmatrix(X.copy())
    matrix.flags.writeable = False
    from_matrix = Dataset(X=matrix).X
    assert type(from_matrix) is np.ndarray and not np.shares_memory(from_matrix, matrix)
    np.testing.assert_array_equal(from_matrix, X)
    assert not from_matrix.flags.writeable
    X.flags.writeable = False
    assert Dataset(X=X).X is X
    csv_path = str(tmp_path / "d.csv")
    save_dataset(Dataset(X=X), csv_path)
    loaded = load_dataset(csv_path)
    assert Dataset(X=loaded.X).X is loaded.X


def test_center_allocates_the_result_once() -> None:
    import tracemalloc

    ds = sample(builtin_spec(5), 100_000, 0)
    tracemalloc.start()
    try:
        centred = center(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert centred.X is not ds.X
    assert peak <= 1.1 * centred.X.nbytes


# ------------------------------------------------- the CSV codec in pieces

@pytest.fixture()
def two_cpus(usable_cpus):
    """Two usable CPUs, so that more than one piece runs on a pool on any
    host: a spy on _fork._pool."""
    return usable_cpus(2)


@pytest.mark.parametrize("m", [1, 4, 5, 6, 11])
@pytest.mark.parametrize("n", range(1, 8))
def test_csv_writer_pieces_match_savetxt(tmp_path, two_cpus, n, m) -> None:
    """With 5-sample pieces of 2-sample blocks, every m around a piece
    boundary gives savetxt's bytes, and the part files are gone."""
    rng = np.random.default_rng([n, m])
    X = rng.integers(0, 2 ** 64, size=(n, m), dtype=np.uint64).view(np.float64)
    with mock.patch.object(_csvio, "_WRITE_PIECE", 5), mock.patch.object(_csvio, "_WRITE_BLOCK", 2):
        written = _save_bytes(tmp_path / "a.csv", X)
    assert written == _savetxt_bytes(tmp_path / "b.csv", X)
    assert two_cpus.call_count == (m > 5)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def _csv_text(rng, rows: int, n: int) -> str:
    X = rng.standard_normal((rows, n))
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X)


def _variants(text: str) -> dict[str, str]:
    lines = text.splitlines(keepends=True)
    return {
        "lf": text,
        "crlf": text.replace("\n", "\r\n"),
        "no-final-newline": text[:-1],
        "blank-lines": "\n" + "".join(line + "\n" * (i % 3 == 0) for i, line in enumerate(lines)),
        "crlf-blank-lines": "\r\n" + "".join(line.replace("\n", "\r\n") + "\r\n" * (i % 2)
                                             for i, line in enumerate(lines)),
    }


@pytest.mark.parametrize("piece", [1, 40, 97, 300])
def test_csv_reader_pieces_match_one_piece(tmp_path, two_cpus, piece) -> None:
    """Cut into pieces, a file reads to the bits that one piece and a
    text-mode np.loadtxt give, blank lines at piece boundaries, CRLF line
    ends and a missing final newline included."""
    text = _csv_text(np.random.default_rng(piece), 23, 3)
    for name, variant in _variants(text).items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(variant.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            expected = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2).T
        whole = load_dataset(str(path)).X
        with mock.patch.object(_csvio, "_READ_PIECE", piece):
            pieces = load_dataset(str(path)).X
        assert whole.tobytes() == expected.tobytes(), name
        assert pieces.shape == expected.shape and pieces.tobytes() == expected.tobytes(), name
    assert two_cpus.call_count == len(_variants(text))


def test_csv_round_trip_in_pieces_is_bit_identical(tmp_path, two_cpus) -> None:
    ds = sample(builtin_spec(5), 3000, 1)
    with mock.patch.object(_csvio, "_WRITE_PIECE", 700), mock.patch.object(_csvio, "_READ_PIECE", 5000):
        csv_path = str(tmp_path / "d.csv")
        save_dataset(ds, csv_path)
        back = load_dataset(csv_path)
    assert two_cpus.call_count == 2
    assert back.X.tobytes() == ds.X.tobytes()
    assert back.X.flags.c_contiguous and not back.X.flags.writeable


def test_more_processes_than_cpus_write_disjoint_columns(tmp_path, usable_cpus) -> None:
    """Six processes on small pieces share X and the output: every piece
    lands in its own columns and its own place in the file."""
    ds = sample(builtin_spec(4), 2000, 5)
    usable_cpus(6)
    with mock.patch.object(_csvio, "_WRITE_PIECE", 97), mock.patch.object(_csvio, "_READ_PIECE", 999):
        csv_path = str(tmp_path / "d.csv")
        save_dataset(ds, csv_path)
        back = load_dataset(csv_path)
    assert Path(csv_path).read_bytes() == _savetxt_bytes(tmp_path / "ref.csv", ds.X)
    assert back.X.tobytes() == ds.X.tobytes()


def test_unwritable_path_is_reported_under_its_name(tmp_path, two_cpus) -> None:
    ds = sample(builtin_spec(2), 300, 0)
    path = tmp_path / "missing" / "d.csv"
    with mock.patch.object(_csvio, "_WRITE_PIECE", 70), pytest.raises(FileNotFoundError) as err:
        save_dataset(ds, str(path))
    assert err.value.filename == str(path)


def test_one_cpu_runs_the_pieces_in_process(tmp_path, usable_cpus) -> None:
    ds = sample(builtin_spec(2), 500, 3)
    pool = usable_cpus(1)
    with mock.patch.object(_csvio, "_WRITE_PIECE", 64), mock.patch.object(_csvio, "_READ_PIECE", 512):
        csv_path = str(tmp_path / "d.csv")
        save_dataset(ds, csv_path)
        back = load_dataset(csv_path)
    pool.assert_not_called()
    assert back.X.tobytes() == ds.X.tobytes()


def test_load_beside_another_thread_runs_in_process(tmp_path, two_cpus) -> None:
    """A Python thread besides the caller's may hold a lock that a forked
    child would wait on, so a load started from a second thread, or
    while one runs, parses every piece in the calling process."""
    import threading

    ds = sample(builtin_spec(3), 400, 2)
    csv_path = str(tmp_path / "d.csv")
    save_dataset(ds, csv_path)
    loaded = []
    with mock.patch.object(_csvio, "_READ_PIECE", 256):
        worker = threading.Thread(target=lambda: loaded.append(_load_bytes(csv_path)))
        worker.start()
        worker.join()
    assert loaded == [ds.X.tobytes()]
    two_cpus.assert_not_called()


def _load_bytes(path: str) -> bytes:
    return load_dataset(path).X.tobytes()


def test_load_inside_a_pool_worker(tmp_path, two_cpus) -> None:
    """A daemonic pool worker may start no processes, so it parses every
    piece itself."""
    import multiprocessing

    ds = sample(builtin_spec(3), 400, 2)
    csv_path = str(tmp_path / "d.csv")
    save_dataset(ds, csv_path)
    with mock.patch.object(_csvio, "_READ_PIECE", 256):
        with multiprocessing.get_context("fork").Pool(1) as outer:
            loaded = outer.apply_async(_load_bytes, (csv_path,)).get(timeout=120)
    assert loaded == ds.X.tobytes()
    two_cpus.assert_not_called()


def test_malformed_piece_names_its_file_line(tmp_path, two_cpus) -> None:
    """Past many pieces, a bad cell, a short row, a non-UTF-8 line and a
    long row are each reported at their 1-based line in the file, and the
    earliest fault wins."""
    good = "1,2,3\n" * 40 + "\n"
    path = tmp_path / "bad.csv"
    for tail, line, reason in [("4,x,6\n", 42, "column 2, 'x' is not a number"),
                               ("4,5\n7,x,9\n", 42, "2 columns, but the first data row has 3"),
                               ("\r\n4,5,6\r\n\xff,1,2\n", 44, "not UTF-8 text"),
                               ("1,2,3," + "4," * 40 + "5\n", 42, "44 columns, but the first data row has 3")]:
        path.write_bytes(good.encode() + tail.encode("latin-1") + good.encode() + b"1,x,3\n")
        with mock.patch.object(_csvio, "_READ_PIECE", 16), pytest.raises(ValueError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"{path}:{line}: {reason}"


def test_import_loads_no_process_machinery() -> None:
    """Importing slcd, or its command-line entry point slcd.cli, loads
    neither the CSV codec nor multiprocessing, concurrent.futures or
    mmap: save_dataset, load_dataset and sweep() import them when they
    run, so that the import stays short."""
    import os
    import subprocess
    import sys

    import slcd

    src = str(Path(slcd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, slcd, slcd.cli; "
            "print(sorted({'slcd._csvio', 'multiprocessing', 'concurrent.futures', 'mmap'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.split() == ["[]"]


def test_wide_first_row_is_reported_not_allocated(tmp_path, two_cpus) -> None:
    """A first row far wider than the rest would make an n-by-m matrix
    larger than the file could fill: the short second row is reported."""
    path = tmp_path / "wide.csv"
    path.write_text(",".join(["1"] * 1000) + "\n" + "2\n" * 2000, encoding="utf-8")
    with mock.patch.object(_csvio, "_READ_PIECE", 512), pytest.raises(ValueError) as err:
        load_dataset(str(path))
    assert str(err.value) == f"{path}:2: 1 column, but the first data row has 1000"
