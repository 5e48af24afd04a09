import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import column_collisions, enumerate_matrices, shuffled_closure
from scm_ident import (
    CapacityError,
    ScmTopology,
    closure_generate,
    closure_identifiable,
    equivalence_audit,
    min_tasks_for,
    pair_agreement_counts,
    uic_check,
    uic_violations,
)
from scm_ident.ident import DifferenceOrigin, SeedOrigin, decode_matrix


def random_topology(rng, m, n) -> ScmTopology:
    return ScmTopology.from_rows(rng.integers(0, 2, size=(m, n)))


class TestClosureGenerate:
    def test_identity_seeds_are_singletons(self):
        top = ScmTopology.from_rows([[1, 0], [0, 1]])
        family = closure_generate(top)
        assert set(family.members) >= {0b00, 0b11, 0b01, 0b10}
        assert family.missing_singletons() == ()

    def test_four_pattern_hand_example(self):
        # columns (0,0), (0,1), (1,0), (1,1): subtracting the two parent
        # sets in both directions isolates every latent
        top = ScmTopology.from_rows([[0, 0, 1, 1], [0, 1, 0, 1]])
        family = closure_generate(top)
        parents_1 = 0b1100  # latents 2, 3
        parents_2 = 0b1010  # latents 1, 3
        for expected in (
            parents_1,
            parents_2,
            0b0100,  # parents_1 - parents_2
            0b0010,  # parents_2 - parents_1
            0b1000,  # parents_1 - {2}
            0b0011,  # U - parents_1
            0b0001,  # {0,1} - {1}
        ):
            assert expected in family
        assert family.missing_singletons() == ()

    def test_walkthrough_first_isolation_step(self, walkthrough_topology):
        verdict = closure_identifiable(walkthrough_topology)
        assert verdict.identifiable
        mask, origin = verdict.per_latent[0][-1]
        assert mask == 0b1  # latent 0's singleton
        # derived by subtracting task 1's parents from task 0's
        assert origin == DifferenceOrigin(
            left=walkthrough_topology.row_masks()[0],
            right=walkthrough_topology.row_masks()[1],
        )

    def test_family_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            top = random_topology(rng, rng.integers(1, 4), rng.integers(1, 6))
            family = closure_generate(top)
            assert len(family) <= 2**top.num_latents

    def test_capacity_error_above_64(self):
        top = ScmTopology(1, 65, np.ones((1, 65), dtype=int))
        with pytest.raises(CapacityError):
            closure_generate(top)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_fixpoint_is_order_independent(self, m, n, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        top = random_topology(rng, m, n)
        family = closure_generate(top)
        oracle = shuffled_closure(
            [top.parent_latents(k).indices() for k in range(m)], n, rng
        )
        as_masks = {sum(1 << j for j in s) for s in oracle}
        assert set(family.members) == as_masks

    def test_traces_replay_to_their_sets(self, walkthrough_topology):
        family = closure_generate(walkthrough_topology)
        for mask in family.members:
            chain = family.derivation_chain(mask)
            replayed: dict[int, int] = {}
            for step_mask, origin in chain:
                if isinstance(origin, SeedOrigin):
                    if origin.kind == "empty":
                        value = 0
                    elif origin.kind == "universal":
                        value = (1 << walkthrough_topology.num_latents) - 1
                    else:
                        value = walkthrough_topology.row_masks()[origin.task]
                else:
                    value = replayed[origin.left] & ~replayed[origin.right]
                assert value == step_mask
                replayed[step_mask] = value
            assert chain[-1][0] == mask


class TestClosureVerdict:
    def test_colliding_latents_lack_traces(self, colliding_topology):
        verdict = closure_identifiable(colliding_topology)
        assert not verdict.identifiable
        assert verdict.per_latent[2] is None and verdict.per_latent[3] is None
        assert (2, 3) in verdict.violating_pairs

    def test_single_latent_single_task(self):
        verdict = closure_identifiable(ScmTopology.from_rows([[1]]))
        assert verdict.identifiable

    def test_two_latents_one_task_not_identifiable(self):
        top = ScmTopology.from_rows([[1, 1]])
        family = closure_generate(top)
        assert set(family.members) == {0b00, 0b11}
        assert not closure_identifiable(top).identifiable

    def test_verdict_internal_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            top = random_topology(rng, rng.integers(1, 4), rng.integers(1, 6))
            verdict = closure_identifiable(top)
            assert verdict.identifiable == all(c is not None for c in verdict.per_latent)
            assert verdict.identifiable == (verdict.violating_pairs == ())


class TestAgreementDecider:
    def test_complementary_columns_accepted(self):
        assert uic_check(ScmTopology.from_rows([[1, 0], [0, 1]]))

    def test_identical_columns_rejected(self):
        top = ScmTopology.from_rows([[1, 1], [0, 0]])
        assert not uic_check(top)
        assert pair_agreement_counts(top)[(0, 1)] == 2

    def test_distinct_columns_counts_below_m(self):
        top = ScmTopology.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert uic_check(top)
        assert all(count < 3 for count in pair_agreement_counts(top).values())

    def test_violations_match_collision_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            top = random_topology(rng, rng.integers(1, 4), rng.integers(1, 6))
            assert uic_violations(top) == top.collision_pairs()

    def test_three_identical_columns_all_pairs(self):
        top = ScmTopology.from_rows([[1, 1, 1], [0, 0, 0]])
        assert uic_violations(top) == [(0, 1), (0, 2), (1, 2)]

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5), st.integers())
    @settings(max_examples=60)
    def test_permutation_invariance(self, m, n, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        top = random_topology(rng, m, n)
        col_perm = rng.permutation(n)
        row_perm = rng.permutation(m)
        shuffled = ScmTopology.from_rows(
            np.asarray(top.adjacency)[np.ix_(row_perm, col_perm)]
        )
        assert uic_check(top) == uic_check(shuffled)
        before = closure_identifiable(top)
        after = closure_identifiable(shuffled)
        assert before.identifiable == after.identifiable
        # column j of the original sits at the position mapping to it, so
        # per-latent reachability permutes along with the columns
        reachable_before = {j for j, c in enumerate(before.per_latent) if c is not None}
        reachable_after = {j for j, c in enumerate(after.per_latent) if c is not None}
        assert reachable_after == {
            int(np.flatnonzero(col_perm == j)[0]) for j in reachable_before
        }


class TestEquivalenceAudit:
    def test_two_by_two(self):
        report = equivalence_audit(2, 2)
        by_shape = {(s.num_tasks, s.num_latents): s for s in report.shapes}
        assert by_shape[(2, 2)].total == 16
        assert report.mismatches == ()
        assert report.agreements == report.total_matrices

    def test_degenerate_single_cell(self):
        report = equivalence_audit(1, 1)
        assert by_identifiable(report, 1, 1) == 2  # both [[0]] and [[1]]

    def test_three_by_five_shape(self):
        report = equivalence_audit(3, 5)
        by_shape = {(s.num_tasks, s.num_latents): s for s in report.shapes}
        assert by_shape[(3, 5)].total == 32768
        # distinct ordered column choices: 8 * 7 * 6 * 5 * 4
        assert by_shape[(3, 5)].identifiable == 6720
        assert report.mismatches == ()
        assert report.agreement_vs_distinct == ()

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            equivalence_audit(5, 5)

    def test_max_identifiable_reporting(self):
        report = equivalence_audit(2, 5)
        assert report.max_identifiable_latents()[2] == 4
        assert report.max_identifiable_latents()[1] == 2

    def test_decode_matrix_round_trip(self):
        for rows in enumerate_matrices(2, 3):
            enc = sum(
                rows[k][j] << (k * 3 + j) for k in range(2) for j in range(3)
            )
            assert decode_matrix(enc, 2, 3) == ScmTopology.from_rows(rows)

    def test_parallel_matches_serial(self, monkeypatch):
        serial = equivalence_audit(2, 3, workers=1)
        monkeypatch.setenv("SCM_IDENT_THREADS", "2")
        parallel = equivalence_audit(2, 3, workers=2)
        assert serial == parallel


def by_identifiable(report, m, n):
    return {(s.num_tasks, s.num_latents): s.identifiable for s in report.shapes}[(m, n)]


class TestMinTasks:
    def test_two_latents_with_zero_column(self):
        result = min_tasks_for(2, allow_zero_column=True)
        assert result.num_tasks == 1
        assert sorted(result.witness.column_masks()) == [0, 1]

    def test_four_latents(self):
        assert min_tasks_for(4, allow_zero_column=True).num_tasks == 2

    def test_five_latents_needs_three_tasks(self):
        assert min_tasks_for(5, allow_zero_column=True).num_tasks == 3
        assert min_tasks_for(5, allow_zero_column=False).num_tasks == 3

    def test_zero_column_exclusion_shifts_boundary(self):
        assert min_tasks_for(2, allow_zero_column=False).num_tasks == 2
        assert min_tasks_for(4, allow_zero_column=False).num_tasks == 3

    def test_witness_is_identifiable(self):
        for n in range(1, 9):
            for allow in (True, False):
                result = min_tasks_for(n, allow_zero_column=allow)
                assert uic_check(result.witness)
                if not allow:
                    assert 0 not in result.witness.column_masks()

    def test_capacity(self):
        with pytest.raises(CapacityError):
            min_tasks_for(17)


class TestLatentBoundConsequence:
    def test_parent_bound_violation_implies_rejection(self):
        # any task with more parents than 2**(m-1) forces a column clash
        for m, n in ((1, 3), (2, 4), (2, 5), (3, 5)):
            for rows in enumerate_matrices(m, n):
                top = ScmTopology.from_rows(rows)
                if any(top.adjacency.sum(axis=1) > 2 ** (m - 1)):
                    assert not uic_check(top)
                    assert top.collision_pairs() != []
