import concurrent.futures
import json
import multiprocessing.process
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    column_collisions,
    enumerate_matrices,
    reference_closure_origins,
    reference_derivation,
    replay_chain,
    shuffled_closure,
)
from scm_ident import (
    CapacityError,
    ScmTopology,
    _parallel,
    closure_generate,
    closure_identifiable,
    equivalence_audit,
    min_tasks_for,
    uic_check,
    uic_violations,
)
from scm_ident._kernels import decode_matrix
from scm_ident.cli import main
from scm_ident.ident import (
    CLOSURE_MEMBER_LIMIT,
    DifferenceOrigin,
    SeedOrigin,
    _agreement_counts,
)


def random_topology(rng, m, n) -> ScmTopology:
    return ScmTopology.from_rows(rng.integers(0, 2, size=(m, n)))


class TestClosureGenerate:
    def test_identity_seeds_are_singletons(self):
        top = ScmTopology.from_rows([[1, 0], [0, 1]])
        members = closure_generate(top)
        assert set(members) >= {0b00, 0b11, 0b01, 0b10}
        assert all(1 << j in members for j in range(2))

    def test_four_pattern_hand_example(self):
        # columns (0,0), (0,1), (1,0), (1,1): subtracting the two parent
        # sets in both directions isolates every latent
        top = ScmTopology.from_rows([[0, 0, 1, 1], [0, 1, 0, 1]])
        members = closure_generate(top)
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
            assert expected in members
        assert all(1 << j in members for j in range(4))

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
    def test_members_equal_a_shuffled_fixpoint(self, m, n, seed):
        rng = np.random.default_rng(abs(seed) % (2**32))
        top = random_topology(rng, m, n)
        oracle = shuffled_closure(top.parent_indices(), n, rng)
        assert closure_generate(top) == tuple(sorted(sum(1 << j for j in s) for s in oracle))

    def test_members_are_the_unions_of_atoms_up_to_three_by_four(self):
        for m in range(1, 4):
            for n in range(1, 5):
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    assert closure_generate(top) == tuple(sorted(reference_closure_origins(top)))

    def test_member_listing_keeps_the_bounds(self):
        rows = [[(pattern >> k) & 1 for pattern in range(17)] for k in range(5)]
        with pytest.raises(CapacityError, match="at most 65536 members"):
            closure_generate(ScmTopology.from_rows(rows))
        with pytest.raises(CapacityError, match="at most 64 latents"):
            closure_generate(ScmTopology(1, 65, np.ones((1, 65), dtype=int)))

    def test_family_size_is_two_to_the_distinct_columns(self):
        for m in range(1, 4):
            for n in range(1, 5):
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    assert len(closure_generate(top)) == 1 << len(set(top.column_masks()))

    def test_listing_above_the_member_limit_is_refused(self):
        # 17 distinct columns: a family of 2^17 members, one step past the cap
        rows = [[(pattern >> k) & 1 for pattern in range(17)] for k in range(5)]
        top = ScmTopology.from_rows(rows)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="members"):
            closure_generate(top)
        assert time.perf_counter() - start < 1.0
        assert closure_identifiable(top).identifiable

    def test_listing_at_the_member_limit_runs(self):
        rows = [[(pattern >> k) & 1 for pattern in range(16)] for k in range(4)]
        assert len(closure_generate(ScmTopology.from_rows(rows))) == 1 << 16 == CLOSURE_MEMBER_LIMIT


class TestClosureVerdict:
    def test_colliding_latents_lack_traces(self, colliding_topology):
        verdict = closure_identifiable(colliding_topology)
        assert not verdict.identifiable
        assert verdict.per_latent[2] is None and verdict.per_latent[3] is None
        assert (2, 3) in colliding_topology.collision_pairs()

    def test_single_latent_single_task(self):
        verdict = closure_identifiable(ScmTopology.from_rows([[1]]))
        assert verdict.identifiable

    def test_two_latents_one_task_not_identifiable(self):
        top = ScmTopology.from_rows([[1, 1]])
        assert closure_generate(top) == (0b00, 0b11)
        assert not closure_identifiable(top).identifiable

    def test_verdict_internal_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            top = random_topology(rng, rng.integers(1, 4), rng.integers(1, 6))
            verdict = closure_identifiable(top)
            assert verdict.identifiable == all(c is not None for c in verdict.per_latent)
            assert verdict.identifiable == (top.collision_pairs() == [])



class TestAtomCertificate:
    @staticmethod
    def assert_certificates(top, verdict):
        for j, chain in enumerate(verdict.per_latent):
            if chain is not None:
                assert replay_chain(top, chain) == 1 << j
                assert len({mask for mask, _ in chain}) == len(chain)
                differences = [o for _, o in chain if isinstance(o, DifferenceOrigin)]
                assert len(differences) <= 2 * top.num_tasks
                assert all(o.left & o.right for o in differences), "a step removes nothing"

    def test_certificates_match_the_fixpoint_up_to_three_by_four(self):
        # no certificate is longer than the fixpoint's first-found derivation
        for m in range(1, 4):
            for n in range(1, 5):
                for rows in enumerate_matrices(m, n):
                    top = ScmTopology.from_rows(rows)
                    verdict = closure_identifiable(top)
                    origins = reference_closure_origins(top)
                    for j, chain in enumerate(verdict.per_latent):
                        assert (chain is not None) == ((1 << j) in origins)
                        if chain is not None:
                            assert len(chain) <= len(reference_derivation(origins, 1 << j))
                    self.assert_certificates(top, verdict)

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

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_topologies_agree_with_columns(self, m, n, seed):
        top = random_topology(np.random.default_rng(seed), m, n)
        verdict = closure_identifiable(top)
        columns = top.column_masks()
        assert verdict.identifiable == uic_check(top)
        for j, chain in enumerate(verdict.per_latent):
            assert (chain is None) == (columns.count(columns[j]) > 1)
        self.assert_certificates(top, verdict)

    def test_sixty_four_latents(self):
        rows = [[(pattern >> k) & 1 for pattern in range(64)] for k in range(7)]
        top = ScmTopology.from_rows(rows)
        start = time.perf_counter()
        verdict = closure_identifiable(top)
        assert time.perf_counter() - start < 1.0
        assert verdict.identifiable and top.collision_pairs() == []
        self.assert_certificates(top, verdict)

    def test_sixty_four_latents_with_a_collision(self):
        rows = [[(pattern >> k) & 1 for pattern in [*range(63), 5]] for k in range(7)]
        top = ScmTopology.from_rows(rows)
        verdict = closure_identifiable(top)
        assert not verdict.identifiable
        assert top.collision_pairs() == [(5, 63)]
        assert [j for j, c in enumerate(verdict.per_latent) if c is None] == [5, 63]

    def test_singleton_seed_ends_the_chain(self):
        # task 1's parent set is {1}: the chain stops at that seed
        top = ScmTopology.from_rows([[1, 1, 0], [0, 1, 0]])
        chain = closure_identifiable(top).per_latent[1]
        assert chain[-1] == (0b010, SeedOrigin("task", 1))

    def test_no_step_removes_nothing(self):
        # task 1's parents {2} lie outside the seeds of latents 0 and 1, so
        # Pa(Y2) never enters their chains
        top = ScmTopology.from_rows([[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        verdict = closure_identifiable(top)
        for chain in verdict.per_latent[:2]:
            assert 0b0100 not in dict(chain)
        self.assert_certificates(top, verdict)
        assert verdict.per_latent[1] == (
            (0b0011, SeedOrigin("task", 0)),
            (0b0001, SeedOrigin("task", 2)),
            (0b0010, DifferenceOrigin(0b0011, 0b0001)),
        )

    def test_capacity_error_above_64(self):
        top = ScmTopology(1, 65, np.ones((1, 65), dtype=int))
        with pytest.raises(CapacityError):
            closure_identifiable(top)


class TestAgreementDecider:
    def test_complementary_columns_accepted(self):
        assert uic_check(ScmTopology.from_rows([[1, 0], [0, 1]]))

    def test_identical_columns_rejected(self):
        top = ScmTopology.from_rows([[1, 1], [0, 0]])
        assert not uic_check(top)
        assert _agreement_counts(top)[0, 1] == 2

    def test_distinct_columns_counts_below_m(self):
        top = ScmTopology.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert uic_check(top)
        assert (_agreement_counts(top)[np.triu_indices(3, 1)] < 3).all()

    def test_violations_match_collision_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            top = random_topology(rng, rng.integers(1, 4), rng.integers(1, 6))
            assert uic_violations(top) == top.collision_pairs()

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=4),
        st.integers(),
    )
    @settings(max_examples=80, deadline=None)
    def test_violations_are_the_fully_agreeing_counted_pairs(self, m, n, patterns, seed):
        # few distinct patterns, so most draws repeat columns
        rng = np.random.default_rng(abs(seed) % (2**32))
        columns = rng.integers(0, 2, size=(m, patterns))[:, rng.integers(0, patterns, size=n)]
        top = ScmTopology.from_rows(columns)
        counts = _agreement_counts(top)
        pairs = [(j, jp) for j in range(n) for jp in range(j + 1, n)]
        # each count is the number of tasks on which the two columns agree
        for j, jp in pairs:
            assert counts[j, jp] == int((columns[:, j] == columns[:, jp]).sum())
        assert uic_violations(top) == [(j, jp) for j, jp in pairs if counts[j, jp] == m]

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

    @pytest.mark.parametrize("max_m, max_n", [(0, 2), (2, 0)])
    def test_bounds_must_be_positive(self, max_m, max_n):
        with pytest.raises(CapacityError, match="^audit bounds must be positive$"):
            equivalence_audit(max_m, max_n)

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

    def test_starts_no_process(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the audit started a process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        report = equivalence_audit(3, 5)
        assert report.total_matrices == report.agreements == 38874
        assert by_identifiable(report, 3, 5) == 6720
        assert main(["enumerate", "--m", "3", "--n", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_matrices"] == payload["agreements"] == 38874
        assert payload["mismatches"] == payload["agreement_vs_distinct"] == []


def by_identifiable(report, m, n):
    return {(s.num_tasks, s.num_latents): s.identifiable for s in report.shapes}[(m, n)]


class TestMinTasks:
    def test_two_latents_with_zero_column(self):
        result = min_tasks_for(2)
        assert result.num_tasks == 1
        assert sorted(result.witness.column_masks()) == [0, 1]

    def test_four_latents(self):
        assert min_tasks_for(4).num_tasks == 2

    def test_five_latents_needs_three_tasks(self):
        assert min_tasks_for(5).num_tasks == 3

    def test_witness_is_identifiable(self):
        for n in range(1, 65):
            result = min_tasks_for(n)
            assert uic_check(result.witness)
            assert 1 << (result.num_tasks - 1) < n <= 1 << result.num_tasks or n == 1

    def test_capacity(self):
        with pytest.raises(CapacityError, match="^witness supports at most 64 latents, got 65$"):
            min_tasks_for(65)

    def test_latent_count_must_be_positive(self):
        with pytest.raises(CapacityError, match="^latent count must be positive$"):
            min_tasks_for(0)


class TestLatentBoundConsequence:
    def test_parent_bound_violation_implies_rejection(self):
        # any task with more parents than 2**(m-1) forces a column clash
        for m, n in ((1, 3), (2, 4), (2, 5), (3, 5)):
            for rows in enumerate_matrices(m, n):
                top = ScmTopology.from_rows(rows)
                if any(top.adjacency.sum(axis=1) > 2 ** (m - 1)):
                    assert not uic_check(top)
                    assert top.collision_pairs() != []
