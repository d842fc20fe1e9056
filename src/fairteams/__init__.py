"""Fair team formation: skill-requirement teams with balanced peer benefit.

Forms student teams that collectively meet per-skill requirement sums while
maximizing how much students can learn from stronger teammates and keeping
that learning opportunity even across protected groups. The pipeline is a
greedy constructive initializer followed by move-based refinement; random,
balanced-clustering, and genetic baselines plus a synthetic roster
generator support head-to-head evaluation.
"""

from .baselines import GAParams, genetic_algorithm, uniform_kmeans
from .core import (Assignment, Instance, ObjectiveBreakdown, Scorer,
                   TaskSpec, compact_assignment, compute_benefit_matrix,
                   make_instance, objective, objective_batch)
from .datagen import (DatasetConfig, GroupGenSpec, bucket_distribution,
                      generate_dataset, generate_group, load_instance,
                      preset_config, save_roster)
from .errors import ValidationError
from .harness import (ExperimentConfig, ExperimentResult, MetricsRecord,
                      RunFailure, default_spec, evaluate_solution,
                      metrics_csv_text, run_experiment, solve_instance,
                      write_metrics_csv)
from .initial import gmbf, lmbf, lmbff, random_init
from .refine import RefineConfig, SolverState, fmhc, postprocess, sahc

__version__ = "0.1.0"

__all__ = [
    "Assignment", "DatasetConfig", "ExperimentConfig", "ExperimentResult",
    "GAParams", "GroupGenSpec", "Instance", "MetricsRecord",
    "ObjectiveBreakdown", "RefineConfig", "RunFailure", "Scorer",
    "SolverState", "TaskSpec", "ValidationError",
    "bucket_distribution", "compact_assignment", "compute_benefit_matrix",
    "default_spec", "evaluate_solution", "fmhc", "generate_dataset",
    "generate_group", "genetic_algorithm", "gmbf", "lmbf", "lmbff",
    "load_instance", "make_instance", "metrics_csv_text", "objective",
    "objective_batch", "postprocess", "preset_config", "random_init",
    "run_experiment", "sahc", "save_roster", "solve_instance",
    "uniform_kmeans", "write_metrics_csv",
]
