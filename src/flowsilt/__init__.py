"""Monte Carlo simulation and closed-form moment oracles for critical
branching diffusions driven by a shared flow noise, plus renormalized
self-intersection estimators on the simulated paths."""

from .engine import (AtomicMeasure, EnsembleResult, MartingaleSpec,
                     ObservableSpec, RecordedTrajectory, SimulationDiverged,
                     martingale_path, quadratic_variation_check,
                     simulate_ensemble, write_replicate_csv)
from .genealogy import (Label, Topology, ancestor_at, arrangement_count,
                        classify_topology, mrca)
from .green import (GreenFunction, GreenUsageError, MollifiedGreen,
                    mollifier_radial)
from .harness import (CheckResult, ConfigError, ExperimentConfig, StatReport,
                      config_from_dict, load_config, run_experiment,
                      write_report)
from .model import (CoefficientModel, ConstantOne, GaussianBump,
                    InitialMeasureSpec, TestFunction, ValidationReport,
                    a_matrix, validate_model)
from .oracle import (FreezeLeading, MergeBlocks, MomentFormula,
                     OracleModelError, diagonal_restrict, dump_terms,
                     mixed_moment)
from .silt import (EpsStudy, ResolutionError, SiltComponents,
                   SiltUsageError, double_point_term,
                   epsilon_convergence_study, gamma_epsilon,
                   tanaka_decomposition)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "EnsembleResult", "MartingaleSpec", "ObservableSpec",
    "RecordedTrajectory", "SimulationDiverged", "martingale_path",
    "quadratic_variation_check", "simulate_ensemble", "write_replicate_csv",
    "Label", "Topology", "ancestor_at",
    "arrangement_count", "classify_topology", "mrca",
    "GreenFunction", "GreenUsageError", "MollifiedGreen", "mollifier_radial",
    "CheckResult", "ConfigError", "ExperimentConfig", "StatReport",
    "config_from_dict", "load_config", "run_experiment", "write_report",
    "CoefficientModel", "ConstantOne", "GaussianBump", "InitialMeasureSpec",
    "TestFunction", "ValidationReport", "a_matrix", "validate_model",
    "FreezeLeading", "MergeBlocks", "MomentFormula", "OracleModelError",
    "diagonal_restrict", "dump_terms", "mixed_moment",
    "EpsStudy", "ResolutionError", "SiltComponents",
    "SiltUsageError", "double_point_term", "epsilon_convergence_study",
    "gamma_epsilon", "tanaka_decomposition",
    "__version__",
]
