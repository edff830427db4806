"""Identification and analysis of homogeneous polynomial dynamical systems.

The package carries a degree k-1 polynomial system dx/dt = A x^{k-1} (+ B u,
y = C x) through three interchangeable representations of its dynamic
tensor: the full dense array, a tensor train, and a hierarchical Tucker
tree.  Identification recovers any of the three directly from sampled
trajectories; controllability and observability tests run natively in each
representation and agree with one another, which the test suite uses as the
central correctness oracle.
"""

from .errors import (ArgumentError, AssumptionError, DivergenceError,
                     HpdsError, IdentifiabilityError, NumericError,
                     ScaleError, ShapeError, UnsupportedError)
from .kernels import (CompactSvd, RankTolerance, compact_svd, least_squares,
                      numerical_rank, pinv, subspace_equal)
from .tensor_core import (almost_symmetrize, fold, hpds_eval_full,
                          is_almost_symmetric, khatri_rao, khatri_rao_power,
                          kron, mode_vec_product, psi_index, unfold)
from .tensor_train import (TensorTrain, tt_contract, tt_decompose,
                           tt_eval_hpds, tt_param_count, tt_reconstruct)
from .hier_tucker import (DimensionTree, HTucker, TreeNode, build_tree,
                          htd_contract, htd_decompose, htd_eval_hpds,
                          htd_param_count, htd_reconstruct)
from .model import (FORMATS, HpdsModel, SampleSet, add_noise,
                    eval_derivative, format_of, simulate_continuous,
                    simulate_discrete)
from .sysid import (IdentifiabilityReport, check_identifiability_autonomous,
                    check_identifiability_io, identify_full, identify_ht,
                    identify_io, identify_io_noisy, identify_tt,
                    required_rank)
from .analysis import (ControllabilityResult, ObservabilityResult,
                       controllability, controllability_full,
                       controllability_ht, controllability_tt, gradient_sum,
                       lift_operator, observability, observability_full,
                       observability_ht, observability_tt)
from .benchmarks import BenchRecord, gen_instance, memory_report, timing_report

__version__ = "0.1.0"
