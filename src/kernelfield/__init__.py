"""Self-consistent spectral kernels on finite graphs.

Builds weighted graphs and their Laplacians, solves the spectral kernel
field equation R[h] = T[h] by fixed-point iteration, reports the
iteration's local contraction rate and the stability of the fixed point,
and computes early-warning diagnostics for approaching graph fragmentation.
"""

from .diagnostics import (
    DiagnosticsRecord,
    diagnostics_record,
    fisher_rao_diag,
    spectral_entropy,
    vacuum_threshold,
    von_neumann_entropy,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    EdgeNotFoundError,
    InvalidGraphError,
    InvalidMatrixError,
    KernelFieldError,
    NumericalError,
)
from .field import (
    FixedPointReport,
    SourceSpec,
    WeightRule,
    build_coupling,
    geometric_R,
    residual_inf,
    solve_fixed_point,
    source_jacobian,
    source_T,
)
from .graph import (
    Graph,
    build_path,
    build_river_channel,
    build_trunk_roots,
    laplacian,
    weaken_edge,
)
from .spectral import (
    EigenBasis,
    SpectralKernel,
    eig_symmetric,
    heat_kernel_weights,
    materialize_kernel,
)
from .stability import (
    StabilityReport,
    hessian,
    stability_report,
)

__version__ = "0.1.0"
