import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import column_collisions
from scm_ident import (
    CapacityError,
    DataError,
    DomainError,
    FactorSet,
    LabelError,
    ScmTopology,
    ShapeError,
)


class TestFactorSet:
    def test_exact_algebra(self):
        a = FactorSet.from_indices([0, 2], width=4)
        b = FactorSet.from_indices([2, 3], width=4)
        assert (a | b).indices() == (0, 2, 3)
        assert (a & b).indices() == (2,)
        assert (a - b).indices() == (0,)
        assert (b - a).indices() == (3,)
        assert 2 in a and 1 not in a
        assert len(a) == 2

    def test_equality_is_bit_identity(self):
        assert FactorSet(0b101, 3) == FactorSet.from_indices([0, 2], 3)
        assert FactorSet(0b101, 3) != FactorSet(0b101, 4)
        assert hash(FactorSet(0b101, 3)) == hash(FactorSet(0b101, 3))

    def test_width_cap(self):
        FactorSet(0, 64)
        with pytest.raises(CapacityError):
            FactorSet(0, 65)

    def test_mask_must_fit_width(self):
        with pytest.raises(DomainError):
            FactorSet(0b100, 2)

    def test_mixed_width_operations_rejected(self):
        with pytest.raises(ShapeError):
            FactorSet(1, 2) | FactorSet(1, 3)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_subtraction_matches_set_semantics(self, mask_a, mask_b):
        a, b = FactorSet(mask_a, 8), FactorSet(mask_b, 8)
        assert set((a - b).indices()) == set(a.indices()) - set(b.indices())
        assert set((a | b).indices()) == set(a.indices()) | set(b.indices())
        assert set((a & b).indices()) == set(a.indices()) & set(b.indices())


class TestValidation:
    def test_wellformed_identity(self):
        ScmTopology(2, 2, [[1, 0], [0, 1]])

    def test_fractional_entry_rejected(self):
        with pytest.raises(ValueError):
            ScmTopology(1, 2, [[0.5, 1]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ScmTopology(1, 2, [[1, 0, 1]])

    def test_empty_dimensions_rejected(self):
        with pytest.raises(ShapeError):
            ScmTopology(0, 2, np.zeros((0, 2)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(LabelError):
            ScmTopology(1, 2, [[1, 0]], latent_names=["a", "a"])

    def test_wrong_name_count_rejected(self):
        with pytest.raises(LabelError):
            ScmTopology(1, 2, [[1, 0]], task_names=["t1", "t2"])

    def test_adjacency_is_readonly(self):
        top = ScmTopology(1, 2, [[1, 0]])
        with pytest.raises(ValueError):
            top.adjacency[0, 0] = 0


class TestParentsAndChildren:
    def test_parent_row_read(self):
        top = ScmTopology.from_rows([[1, 1, 0], [0, 1, 1]])
        assert top.parent_latents(0).indices() == (0, 1)

    def test_all_zero_row(self):
        top = ScmTopology.from_rows([[0, 0]])
        assert top.parent_latents(0).indices() == ()

    def test_walkthrough_shared_latent(self, walkthrough_topology):
        # the latent feeding both of the first two tasks
        assert 1 in walkthrough_topology.parent_latents(1)
        assert walkthrough_topology.child_tasks(1).indices() == (0, 1)

    def test_child_column_read(self):
        top = ScmTopology.from_rows([[1, 0], [1, 0]])
        assert top.child_tasks(0).indices() == (0, 1)
        assert top.child_tasks(1).indices() == ()

    def test_exclusive_latent(self, walkthrough_topology):
        assert walkthrough_topology.child_tasks(0).indices() == (0,)

    def test_index_errors(self):
        top = ScmTopology.from_rows([[1]])
        with pytest.raises(IndexError):
            top.parent_latents(1)
        with pytest.raises(IndexError):
            top.child_tasks(-1)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5), st.integers())
    @settings(max_examples=60)
    def test_parents_children_are_transposes(self, m, n, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        top = ScmTopology.from_rows(rng.integers(0, 2, size=(m, n)))
        for k in range(m):
            assert top.parent_indices()[k] == top.parent_latents(k).indices()
            for j in range(n):
                assert (j in top.parent_latents(k)) == (k in top.child_tasks(j))


class TestCollisions:
    def test_colliding_pair_found(self, colliding_topology):
        assert (2, 3) in colliding_topology.collision_pairs()

    def test_distinct_columns_no_collision(self):
        assert ScmTopology.from_rows([[1, 0], [0, 1]]).collision_pairs() == []

    def test_against_tuple_comparison_oracle(self):
        rows = [[1, 1, 0], [0, 0, 1]]
        top = ScmTopology.from_rows(rows)
        assert top.collision_pairs() == column_collisions(rows) == [(0, 1)]

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5), st.integers())
    @settings(max_examples=80)
    def test_collision_pairs_match_oracle(self, m, n, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        rows = rng.integers(0, 2, size=(m, n))
        assert ScmTopology.from_rows(rows).collision_pairs() == column_collisions(rows)

    def test_empty_iff_all_columns_distinct_exhaustive(self):
        from helpers import enumerate_matrices

        for m in range(1, 4):
            for n in range(1, 6):
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    distinct = len(set(zip(*rows))) == n
                    assert (top.collision_pairs() == []) == distinct


class TestJsonSchema:
    def test_round_trip(self, walkthrough_topology):
        doc = walkthrough_topology.to_json_dict()
        assert ScmTopology.from_json_dict(doc) == walkthrough_topology

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError):
            ScmTopology.from_json_dict(
                {"num_tasks": 1, "num_latents": 1, "adjacency": [[1]], "extra": 1}
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(DataError):
            ScmTopology.from_json_dict({"num_tasks": 1, "num_latents": 1})

    @pytest.mark.parametrize("count", [1.9, True, 0.5])
    def test_non_integral_count_rejected(self, count):
        doc = {"num_tasks": count, "num_latents": 2, "adjacency": [[1, 0]]}
        with pytest.raises(DataError, match="whole number"):
            ScmTopology.from_json_dict(doc)
        with pytest.raises(DataError, match="whole number"):
            ScmTopology.from_json_dict({**doc, "num_tasks": 1, "num_latents": count})

    @pytest.mark.parametrize("count", ["1", "2", None, [2]])
    def test_non_number_count_rejected(self, count):
        doc = {"num_tasks": count, "num_latents": 2, "adjacency": [[1, 0]]}
        with pytest.raises(DataError, match="whole number"):
            ScmTopology.from_json_dict(doc)
        with pytest.raises(DataError, match="whole number"):
            ScmTopology.from_json_dict({**doc, "num_tasks": 1, "num_latents": count})

    @pytest.mark.parametrize("count", [2, 2.0, np.int64(2)])
    def test_integral_count_loads(self, count):
        doc = {"num_tasks": count, "num_latents": count, "adjacency": [[1, 0], [0, 1]]}
        assert ScmTopology.from_json_dict(doc) == ScmTopology.from_rows([[1, 0], [0, 1]])

    def test_names_preserved(self):
        doc = {
            "num_tasks": 1,
            "num_latents": 2,
            "adjacency": [[1, 0]],
            "latent_names": ["syntax", "semantics"],
            "task_names": ["label"],
        }
        top = ScmTopology.from_json_dict(doc)
        assert top.latent_label(1) == "semantics"
        assert top.to_json_dict() == doc
