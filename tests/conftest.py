import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scm_ident import (
    DgpSpec,
    ExpFamilyPrior,
    ScmTopology,
)


@pytest.fixture
def walkthrough_topology() -> ScmTopology:
    """3 tasks, 5 latents, all columns distinct.

    Latent 0 feeds only task 0; latent 1 feeds tasks 0 and 1, so
    subtracting task 1's parents from task 0's isolates latent 0 in one
    step, and the remaining latents fall out the same way.
    """
    return ScmTopology.from_rows(
        [
            [1, 1, 0, 0, 0],
            [0, 1, 1, 0, 1],
            [0, 0, 1, 1, 0],
        ]
    )


@pytest.fixture
def colliding_topology() -> ScmTopology:
    """2 tasks, 4 latents; latents 2 and 3 share the child set {0, 1}."""
    return ScmTopology.from_rows(
        [
            [1, 0, 1, 1],
            [0, 1, 1, 1],
        ]
    )


MIXING_2 = np.array([[1.0, 0.6], [-0.4, 1.1]])


def identifiable_spec() -> DgpSpec:
    """n=2, m=2, complementary columns, three diverse environments."""
    topology = ScmTopology.from_rows([[1, 0], [0, 1]])
    prior = ExpFamilyPrior(
        means=[[0.0, 1.0], [1.5, -0.5], [-1.0, 0.5]],
        variances=[[1.0, 0.7], [2.5, 1.2], [0.6, 3.0]],
    )
    return DgpSpec(topology, prior, MIXING_2, [np.array([[1.3]]), np.array([[-0.8]])])


def colliding_spec() -> DgpSpec:
    """n=2, m=1, identical columns; the pair's priors are exchangeable.

    With exchangeable pair priors the model family contains every
    rotation of the pair, which is exactly the freedom that makes the
    colliding topology unrecoverable.
    """
    topology = ScmTopology.from_rows([[1, 1]])
    prior = ExpFamilyPrior(
        means=[[0.0, 0.0], [1.0, 1.0], [-0.8, -0.8]],
        variances=[[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]],
    )
    return DgpSpec(topology, prior, MIXING_2, [np.array([[0.9, 0.3], [-0.2, 1.4]])])


def parentless_task_spec(rows) -> DgpSpec:
    """n=2, m=3; one task has no parents, the other two one latent each.

    ``rows`` places the parentless task first, between or last.
    """
    topology = ScmTopology.from_rows(rows)
    prior = ExpFamilyPrior(
        means=[[0.0, 1.0], [1.5, -0.5], [-1.0, 0.5]],
        variances=[[1.0, 0.7], [2.5, 1.2], [0.6, 3.0]],
    )
    one_parent_maps = iter([np.array([[1.3]]), np.array([[-0.8]])])
    task_maps = [next(one_parent_maps) if any(row) else np.zeros((0, 0)) for row in rows]
    return DgpSpec(topology, prior, MIXING_2, task_maps)


PARENTLESS_TASK_ROWS = {
    "leading": [[0, 0], [1, 0], [0, 1]],
    "interior": [[1, 0], [0, 0], [0, 1]],
    "trailing": [[1, 0], [0, 1], [0, 0]],
}


@pytest.fixture
def ident_spec() -> DgpSpec:
    return identifiable_spec()


@pytest.fixture
def collide_spec() -> DgpSpec:
    return colliding_spec()
