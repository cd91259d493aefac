"""Domain types and algebraic identities of structural matrices."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slcd import (
    EdgeSet,
    Gaussian,
    ScmSpec,
    StructuralMatrix,
    Uniform,
    VariableDef,
    builtin_spec,
    sample,
    sample_covariance,
    true_edges,
)
from slcd.scm_core import _numerical_rank, _validate_ground_truth
from conftest import PAIR_SUM_ALIAS
from oracle_utils import analytic_variances, induced_covariance

UNIFORM_VARIANCE = 25.0 / 12.0  # Var(U(-2.5, 2.5)) = (b - a)^2 / 12


# ---------------------------------------------------------------- types

def test_uniform_moments() -> None:
    u = Uniform(-2.5, 2.5)
    assert u.draw(np.random.default_rng(0), 100_000).mean() == pytest.approx(0.0, abs=0.02)
    assert u.variance == pytest.approx(UNIFORM_VARIANCE)


def test_uniform_rejects_empty_interval() -> None:
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)


def test_gaussian_rejects_nonpositive_variance() -> None:
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)


def test_variable_def_rejects_duplicate_parents() -> None:
    with pytest.raises(ValueError):
        VariableDef.dependent([(0, 1.0), (0, 2.0)])


def test_variable_def_rejects_zero_coefficients() -> None:
    with pytest.raises(ValueError):
        VariableDef.dependent([(0, 0.0)])


def test_variable_def_rejects_empty_terms() -> None:
    with pytest.raises(ValueError):
        VariableDef.dependent([])


def test_spec_rejects_dependent_parent() -> None:
    # x3 depends on x2, itself dependent: outside the supported model class
    with pytest.raises(ValueError):
        ScmSpec(name="bad", variables=(
            VariableDef.independent(Uniform(-1, 1)),
            VariableDef.dependent([(0, 1.0)]),
            VariableDef.dependent([(1, 1.0)]),
        ))


def test_edge_set_rejects_self_loops() -> None:
    with pytest.raises(ValueError):
        EdgeSet([(1, 1)])


def test_edge_set_operations() -> None:
    a = EdgeSet([(0, 1), (0, 2)])
    assert len(a) == 2
    assert a.pairs == {(0, 1), (0, 2)}


def test_structural_matrix_is_read_only() -> None:
    sm = StructuralMatrix(np.eye(3))
    with pytest.raises(ValueError):
        sm.entries[0, 0] = 2.0


def test_structural_matrix_rejects_non_square() -> None:
    with pytest.raises(ValueError):
        StructuralMatrix(np.zeros((2, 3)))


def test_structural_matrix_rejects_non_finite() -> None:
    with pytest.raises(ValueError):
        StructuralMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --------------------------------------------------------- built-in truth

def test_builtin_truth_matrices(truth_matrices) -> None:
    # written out from the generative definitions by hand
    expected = {
        1: [[1, 0, 0], [2, 0, 0], [0.4, 0, 0]],
        2: [[1, 0, 0, 0], [0, 1, 0, 0], [0.3, 0, 0, 0], [1, 2, 0, 0]],
        3: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 3, 0, 0, 0],
            [0, 2, 0, 0, 0], [2, 1, 0, 0, 0]],
        4: [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
            [1, 0, 0.3, 0, 0, 0], [2, 3, 0, 0, 0, 0], [0, 2, 0.5, 0, 0, 0]],
        5: [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0], [1, 0, 0.5, 0, 0, 0, 0],
            [0, 1, 2, 0, 0, 0, 0], [1, 0, 3, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 0]],
    }
    for ds_id, rows in expected.items():
        np.testing.assert_array_equal(truth_matrices[ds_id], np.array(rows, dtype=float))


def test_builtin_truth_validates(truth_matrices) -> None:
    for ds_id, D in truth_matrices.items():
        assert _validate_ground_truth(D, tau=2) == [], f"dataset {ds_id}"


def test_rank_equals_independent_count(truth_matrices) -> None:
    independent_counts = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    for ds_id, D in truth_matrices.items():
        assert _numerical_rank(D) == independent_counts[ds_id]


# -------------------------------------------------------------- validator

def test_validator_accepts_identity() -> None:
    assert _validate_ground_truth(np.eye(3), tau=1) == []


def test_validator_reports_row_and_rule() -> None:
    # dependent row 1 has 3 nonzeros with tau=2
    D = np.array([[1.0, 0, 0], [0.5, 0.25, 0.125], [0, 0, 1.0]])
    violations = _validate_ground_truth(D, tau=2)
    assert violations, "over-dense row must be flagged"
    assert any("row 1" in v for v in violations)


def test_validator_flags_diagonal_not_one() -> None:
    D = np.array([[2.0, 0.0], [1.0, 0.0]])
    assert _validate_ground_truth(D, tau=2) != []


def test_validator_flags_rank_mismatch() -> None:
    # no row is independent-shaped, yet the matrix has rank 1: both the
    # parent rule and the rank rule must fire
    D = np.array([[0.0, 1.0], [0.0, 0.0]])
    violations = _validate_ground_truth(D, tau=1)
    assert any("rank" in v for v in violations)
    assert any("not an independent row" in v for v in violations)


def test_alias_matrix_validates_by_shape() -> None:
    # The aliased matrix rewrites x1 via x2 and x3. Seen on its own,
    # rows 2 and 3 are shaped like independent rows, so a shape-only
    # validator has no way to know x3 was dependent in the generating
    # model; the matrix passes. Disqualifying it is the covariance
    # constraint's job (see the solver tests).
    assert _validate_ground_truth(PAIR_SUM_ALIAS, tau=2) == []


# -------------------------------------------------------------- true_edges

def test_true_edges_dataset1(truth_matrices) -> None:
    assert sorted(true_edges(truth_matrices[1])) == [(0, 1), (0, 2)]


def test_true_edges_identity_empty() -> None:
    assert len(true_edges(np.eye(4))) == 0


def test_true_edges_counts(truth_matrices) -> None:
    # link totals implied by the generative definitions
    expected = {1: 2, 2: 3, 3: 5, 4: 6, 5: 8}
    for ds_id, D in truth_matrices.items():
        assert len(true_edges(D)) == expected[ds_id]


def test_true_edges_rejects_invalid() -> None:
    with pytest.raises(ValueError):
        true_edges(np.array([[2.0, 0.0], [1.0, 0.0]]))


def test_true_edges_matches_spec_dependencies() -> None:
    for ds_id in range(1, 6):
        spec = builtin_spec(ds_id)
        from_matrix = true_edges(spec.structural_matrix())
        from_lists = {(j, i) for i, v in enumerate(spec.variables)
                      if v.role == "dependent" for j, _ in v.terms}
        assert from_matrix.pairs == from_lists


# ------------------------------------------------------ induced covariance

def test_induced_covariance_identity() -> None:
    got = induced_covariance(np.eye(3), np.array([1.0, 4.0, 9.0]))
    np.testing.assert_allclose(got, np.diag([1.0, 4.0, 9.0]))


def test_induced_covariance_dataset1_entry(truth_matrices) -> None:
    # cov(x2, x3) = 2 * 0.4 * Var(x1) = 5/3
    spec = builtin_spec(1)
    got = induced_covariance(truth_matrices[1], analytic_variances(spec))
    assert got[1, 2] == pytest.approx(5.0 / 3.0)


def test_induced_covariance_sum_model_by_hand() -> None:
    D = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
    got = induced_covariance(D, np.array([1.0, 1.0, 0.0]))
    assert got[2, 2] == pytest.approx(2.0)
    assert got[0, 2] == pytest.approx(1.0)


def test_induced_covariance_dimension_mismatch() -> None:
    with pytest.raises(ValueError):
        induced_covariance(np.eye(3), np.array([1.0, 2.0]))


def test_induced_covariance_rejects_negative_variance() -> None:
    with pytest.raises(ValueError):
        induced_covariance(np.eye(2), np.array([1.0, -1.0]))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_induced_covariance_symmetric_psd(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    D = rng.normal(size=(n, n))
    var = rng.uniform(0.0, 3.0, size=n)
    got = induced_covariance(D, var)
    np.testing.assert_allclose(got, got.T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(got)
    assert eigenvalues.min() > -1e-10


def test_sample_covariance_converges_to_induced() -> None:
    # statistical check at m = 1e5: max-abs gap below 5 * maxvar / sqrt(m)
    m = 100_000
    for ds_id in range(1, 6):
        spec = builtin_spec(ds_id)
        ds = sample(spec, m, seed=4)
        Sigma, _ = sample_covariance(ds)
        induced = induced_covariance(
            spec.structural_matrix(), analytic_variances(spec))
        bound = 5.0 * float(np.max(np.diag(induced))) / np.sqrt(m)
        assert float(np.max(np.abs(Sigma - induced))) < bound, f"dataset {ds_id}"


# ------------------------------------------------------------ serialization

def test_structural_matrix_json_round_trip() -> None:
    sm = StructuralMatrix(np.array([[1.0, 0.0], [0.5, 0.0]]))
    text = json.dumps(sm.to_json())
    back = StructuralMatrix.from_json(json.loads(text))
    np.testing.assert_array_equal(back.entries, sm.entries)
    assert sm.to_json()["n"] == 2


def test_spec_json_round_trip() -> None:
    for ds_id in range(1, 6):
        spec = builtin_spec(ds_id)
        back = ScmSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back == spec


def test_spec_json_wire_shape() -> None:
    obj = builtin_spec(2).to_json()
    assert obj["name"] == "dataset2"
    roles = [v["role"] for v in obj["variables"]]
    assert roles == ["independent", "independent", "dependent", "dependent"]
    assert obj["variables"][0]["dist"] == {"kind": "uniform", "a": -2.5, "b": 2.5}
    # 0-based parent indices on the wire
    assert obj["variables"][3]["terms"] == [[0, 1.0], [1, 2.0]]
