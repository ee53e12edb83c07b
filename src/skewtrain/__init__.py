"""Training and diagnosing small classifiers under long-tailed imbalance.

The package is layered bottom-up: a tape-based reverse-mode autodiff
engine that serves as the gradient reference (autodiff), MLP layer
stacks for the classifier and the projector with their numpy forward
and backward (models), dataset curation and sampling (data), supervised
and self-supervised loss terms (losses), SGD/SAM optimizers with EMA
(optim), evaluation and collapse diagnostics (diagnostics), and the
experiment harness, which owns the training objective, plus CLI
(harness, cli).
"""

from .autodiff import (
    GradReport,
    NumericalError,
    Tape,
    Tensor,
    Var,
    backward,
    check_gradients,
    finite_diff_check,
    op_apply,
)
from .data import (
    AugmentSpec,
    ClassProfile,
    Dataset,
    augment_two_views,
    class_profile,
    curate_exponential,
    gen_gaussian_mixture,
    grow_majority,
    load_csv,
    make_balanced_sampler,
)
from .diagnostics import (
    BoundaryGrid,
    CollapseReport,
    MarginReport,
    MetricsReport,
    boundary_grid,
    cdnv,
    collapse_report,
    metrics_report,
    minority_margin,
    ncc_report,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialAggregate,
    aggregate,
    config_from_dict,
    misalignment,
    misalignment_steps,
    percent_improvement,
    run_all_seeds,
    run_ratio_grid,
    run_sweep,
    run_training,
)
from .losses import (
    FocalSpec,
    JointLossSpec,
    ReweightSpec,
    SmoothingSpec,
    VicRegSpec,
    joint_loss,
    smoothed_targets,
    vicreg_loss,
)
from .models import (
    MLPParams,
    load_checkpoint,
    mlp_init,
    mlp_predict,
    save_checkpoint,
)
from .optim import (
    OptimState,
    SamSpec,
    TrainConfig,
    cosine_lr,
    ema_update,
    init_state,
    sam_perturb,
    sam_step,
    sgd_update,
)

__version__ = "0.1.0"
