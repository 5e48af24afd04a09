"""Identifiability toolkit for bipartite latent-factor causal topologies.

The package decides whether latent factors behind a multi-task topology
can be told apart (two independent exact deciders plus their brute-force
cross-audit), differentiates the relaxed structure penalties used to
enforce that property during training, samples task-latent masks, and
demonstrates the whole story end to end on synthetic multi-environment
data via latent-recovery experiments.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .dgp import (
    DgpSpec,
    ExpFamilyPrior,
    SyntheticDataset,
    check_variety,
    export_dataset,
    generate_dataset,
    generate_observed,
    load_dataset,
    sample_latents,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    DomainError,
    LabelError,
    ScmIdentError,
    ShapeError,
    SingularModelError,
)
from .ident import (
    AuditReport,
    IdentVerdict,
    MinTasksResult,
    closure_generate,
    closure_identifiable,
    equivalence_audit,
    min_tasks_for,
    uic_check,
    uic_violations,
)
from .losses import (
    LossConfig,
    as_soft_adjacency,
    constraint_loss,
    constraint_loss_grad,
    dis_loss,
    dis_loss_grad,
    uic_loss,
    uic_loss_grad,
)
from .recovery import (
    ExperimentReport,
    FitConfig,
    FitResult,
    MatchResult,
    UnmixModel,
    fit,
    fit_many,
    identifiability_experiment,
    match_permutation,
    recover_latents,
)
from .selection import (
    GumbelMaskSample,
    build_task_latent_matrix,
    gumbel_softmax_mask,
    sample_hard_mask,
    soft_mask,
)
from .topology import ScmTopology

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # topology
    "ScmTopology",
    # deciders
    "AuditReport",
    "IdentVerdict",
    "MinTasksResult",
    "closure_generate",
    "closure_identifiable",
    "equivalence_audit",
    "min_tasks_for",
    "uic_check",
    "uic_violations",
    # losses
    "LossConfig",
    "as_soft_adjacency",
    "constraint_loss",
    "constraint_loss_grad",
    "dis_loss",
    "dis_loss_grad",
    "uic_loss",
    "uic_loss_grad",
    # selection
    "GumbelMaskSample",
    "build_task_latent_matrix",
    "gumbel_softmax_mask",
    "sample_hard_mask",
    "soft_mask",
    # data generation
    "DgpSpec",
    "ExpFamilyPrior",
    "SyntheticDataset",
    "check_variety",
    "export_dataset",
    "generate_dataset",
    "generate_observed",
    "load_dataset",
    "sample_latents",
    # recovery
    "ExperimentReport",
    "FitConfig",
    "FitResult",
    "MatchResult",
    "UnmixModel",
    "fit",
    "fit_many",
    "identifiability_experiment",
    "match_permutation",
    "recover_latents",
    # errors
    "ScmIdentError",
    "ShapeError",
    "DomainError",
    "LabelError",
    "CapacityError",
    "ConfigError",
    "DataError",
    "SingularModelError",
    "DegenerateError",
]
