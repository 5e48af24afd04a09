import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import column_collisions, enumerate_matrices, shifted_masks
from scm_ident import (
    DataError,
    LabelError,
    ScmTopology,
    ShapeError,
)


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


class TestEquality:
    def test_equal_topologies_hash_equal_and_a_set_keeps_one(self):
        a = ScmTopology.from_rows([[1, 0], [1, 1]])
        b = ScmTopology(2, 2, [[1, 0], [1, 1]])
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, ScmTopology.from_rows([[1, 1], [1, 0]])}) == 2

    def test_a_non_topology_is_not_equal(self):
        top = ScmTopology.from_rows([[1, 0], [0, 1]])
        assert top.__eq__(object()) is NotImplemented
        assert not top == object() and top != object()


class TestParentsAndChildren:
    def test_parent_row_read(self):
        top = ScmTopology.from_rows([[1, 1, 0], [0, 1, 1]])
        assert top.parent_indices() == ((0, 1), (1, 2))
        assert top.row_masks() == (0b011, 0b110)

    def test_all_zero_row(self):
        top = ScmTopology.from_rows([[0, 0]])
        assert top.parent_indices() == ((),)

    def test_walkthrough_shared_latent(self, walkthrough_topology):
        # the latent feeding both of the first two tasks
        assert 1 in walkthrough_topology.parent_indices()[1]
        assert walkthrough_topology.column_masks()[1] == 0b011

    def test_child_column_read(self):
        top = ScmTopology.from_rows([[1, 0], [1, 0]])
        assert top.column_masks() == (0b11, 0)

    def test_exclusive_latent(self, walkthrough_topology):
        assert walkthrough_topology.column_masks()[0] == 0b001

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5), st.integers())
    @settings(max_examples=60)
    def test_parents_children_are_transposes(self, m, n, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        rows = rng.integers(0, 2, size=(m, n))
        top = ScmTopology.from_rows(rows)
        parents = top.parent_indices()
        for k in range(m):
            assert parents[k] == tuple(int(j) for j in np.flatnonzero(rows[k]))
            for j in range(n):
                assert (j in parents[k]) == bool((top.column_masks()[j] >> k) & 1)

    def test_parent_indices_exhaustive_up_to_three_by_four(self):
        for m in range(1, 4):
            for n in range(1, 5):
                for rows in enumerate_matrices(m, n):
                    expected = tuple(tuple(j for j in range(n) if row[j]) for row in rows)
                    assert ScmTopology.from_rows(rows).parent_indices() == expected

    def test_parent_indices_of_sixty_four_distinct_columns(self):
        rows = [[(pattern >> k) & 1 for pattern in range(64)] for k in range(7)]
        expected = tuple(tuple(j for j in range(64) if (j >> k) & 1) for k in range(7))
        assert ScmTopology.from_rows(rows).parent_indices() == expected


    @given(
        st.integers(min_value=1, max_value=130),
        st.integers(min_value=1, max_value=70),
        st.floats(0.0, 1.0),
        st.integers(),
    )
    @settings(max_examples=80, deadline=None)
    def test_packed_masks_equal_per_cell_shifts(self, m, n, density, seed):
        rows = (np.random.default_rng(abs(seed) % (2**32)).random((m, n)) < density).astype(int)
        top = ScmTopology.from_rows(rows)
        assert (top.column_masks(), top.row_masks()) == shifted_masks(rows)

    @pytest.mark.parametrize("m, n", [(65, 3), (200, 64), (1000, 64)])
    def test_packed_masks_of_many_tasks(self, m, n):
        rows = np.random.default_rng(m * n).integers(0, 2, size=(m, n))
        rows[-1] = 1  # the highest task bit set in every column
        top = ScmTopology.from_rows(rows)
        assert (top.column_masks(), top.row_masks()) == shifted_masks(rows)


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
        for m in range(1, 4):
            for n in range(1, 6):
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    distinct = len(set(zip(*rows))) == n
                    assert (top.collision_pairs() == []) == distinct

    def test_atoms_group_equal_columns_by_lowest_latent(self, colliding_topology):
        assert colliding_topology.atoms() == (0b0001, 0b0010, 0b1100)
        assert ScmTopology.from_rows([[0, 1, 0, 1]]).atoms() == (0b0101, 0b1010)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6), st.integers())
    @settings(max_examples=60)
    def test_atoms_partition_the_latents_by_column(self, m, n, seed):
        rows = np.random.default_rng(abs(seed) % (2**32)).integers(0, 2, size=(m, n))
        atoms = ScmTopology.from_rows(rows).atoms()
        assert sum(atoms) == (1 << n) - 1
        lowest = [(atom & -atom).bit_length() - 1 for atom in atoms]
        assert lowest == sorted(lowest)
        for j in range(n):
            for jp in range(n):
                together = any((atom >> j) & 1 and (atom >> jp) & 1 for atom in atoms)
                assert together == (list(rows[:, j]) == list(rows[:, jp]))


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

    @pytest.mark.parametrize("key", ["latent_names", "task_names"])
    @pytest.mark.parametrize(
        "names",
        [
            pytest.param("ab", id="string"),
            pytest.param({"a": 1, "b": 2}, id="object"),
            pytest.param([1, 2], id="non-string-element"),
        ],
    )
    def test_names_must_be_an_array_of_strings(self, key, names):
        doc = {"num_tasks": 2, "num_latents": 2, "adjacency": [[1, 0], [0, 1]], key: names}
        with pytest.raises(DataError, match=f"{key} must be an array of strings"):
            ScmTopology.from_json_dict(doc)

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
