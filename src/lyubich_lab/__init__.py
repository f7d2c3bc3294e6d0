"""Numerical laboratory for the dynamics and operator theory of rational maps.

The package builds iterated preimage trees of a rational map, the atomic
measures they carry (whose weak limit is the balanced / Lyubich measure),
the fiber-averaging transfer operator, bump bases of the associated
function bimodule, and a finite operator model on one level step of a
tree, where the composition-operator identities hold to roundoff.
"""

from .bimodule_basis import (JuliaSample, PartitionOfUnity, VanishingFunction,
                             basis_to_json, branch_points_on_julia,
                             branch_separation_radius, build_basis,
                             julia_sample, net_radius, reconstruct)
from .errors import (BudgetExceeded, CoverFailure, DegenerateSample,
                     EigSolverFailure, ExceptionalRoot, InvalidMapError,
                     LyubichLabError, NoVanishingTail, RootFindingFailure)
from .lyubich_measure import (AtomicMeasure, convergence_report, default_root,
                              integrate, measure_from_tree, measure_match_defect,
                              measures_match, pushforward)
from .preimage_solver import (DEFAULT_BUDGET, PreimageTree, WeightedPreimage,
                              iterated_preimages, preimages, sampled_tree)
from .rational_map import (CriticalDatum, RationalMap, branch_index,
                           builtin_map, critical_points, evaluate,
                           evaluate_array, exceptional_points, fixed_points,
                           is_exceptional)
from .operator_lab import (OperatorModel, build_model,
                           default_basis, verification_suite,
                           verify_covariance, verify_frame_bound,
                           verify_isometry, verify_key_lemma,
                           verify_representation,
                           verify_vanishing_reconstruction)
from .sphere import INFINITY, SpherePoint, as_point, chordal
from .test_functions import TestFunction, random_polynomial
from .transfer_operator import (apply_transfer, inner_product, sup_norm_2,
                                transfer_function, transfer_power)

__version__ = "0.1.0"
