"""Fisher information for small parameterized quantum models.

Classical, Bayesian and quantum (SLD and context-maximized) information
measures, the Bayes risk on a prior grid, and randomized checks of the
classical and quantum data-processing inequalities.
"""

from .bayes import (
    BcrbReport,
    PriorGrid,
    check_bcrb,
    gaussian_prior,
    parse_prior_spec,
    uniform_prior,
)
from .dpi import (
    DpiTrialReport,
    StochasticMap,
    classical_dpi_suite,
    quantum_dpi_suite,
)
from .errors import (
    DimensionMismatch,
    DocumentError,
    FisherinfoError,
    InvalidChannel,
    InvalidPovm,
    InvalidState,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    SingularOutcome,
)
from .fisher import (
    SldResult,
    bayesian_information,
    classical_fisher,
    sld_optimal_povm,
    sld_solve,
)
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, eig_hermitian, unitary_exp
from .models import UnitaryFamily
from .optimize import (
    OptimizationResult,
    circumvention_report,
    maximize_fisher,
)
from .quantum import (
    DensityMatrix,
    KrausChannel,
    Povm,
    apply_dual_matrix,
    born_probabilities,
    depolarizing_channel,
    projective_povm,
    pure_state,
    unitary_channel,
)
from .sampling import random_channel

__version__ = "0.1.0"
