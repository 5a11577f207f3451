"""Feasibility solver kit for the pair of problems

    find x in L intersected with the nonnegative orthant, and
    find x_hat in L-perp intersected with the nonnegative orthant,

for a linear subspace L = ker(A), via projection and rescaling.

The names below are the documented API (see the README); everything else
is reached through its module, e.g. epra_kit.oracle or epra_kit.basic."""

from .basic import BpConfig, run_perceptron, run_smooth, run_von_neumann, run_vna
from .bench import ExperimentManifest, run_experiment
from .epra import EpraConfig, EpraResult, solve
from .instances import gen_controlled, gen_naive, gen_partitioned
from .oracle import verify_relint_pair
from .subspace import (
    Instance,
    load_instance,
    projector_from_kernel,
    rescaled_projectors,
    save_instance,
)

__version__ = "0.1.0"
