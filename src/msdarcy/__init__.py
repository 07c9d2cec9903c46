"""Multiscale mixed finite elements for high-contrast Darcy flow.

The package discretizes the unit square with lowest-order edge-flux /
cellwise-pressure mixed elements, builds an auxiliary pressure space
from local weighted eigenproblems, constructs energy-minimizing
velocity basis functions on oversampled regions, and solves the coarse
Darcy problem in that space. `msdarcy.cli` exposes the command line
driver; the library modules mirror the pipeline stages:

mesh -> medium -> fem -> auxspace -> basis -> coarse -> metrics
"""

__version__ = "0.1.0"

from .errors import ConfigError, RasterFormatError, SolveError
from .mesh import (CoarseGrid, FineGrid, Region, bilinear_pou, build_grids,
                   cutoff_field, element_region, full_domain,
                   oversample_region)
from .medium import (Block, MediumSpec, PermField, Strip, WeightField,
                     compute_weight, generate_medium, load_raster,
                     sample_spec, save_raster, spec_from_mapping,
                     three_channel_spec)
from .fem import (FineSolution, SaddleSystem, solve_fine_reference,
                  solve_saddle, manufactured_cospi)
from .auxspace import (AuxSpace, ElementSpectrum, build_aux_space,
                       solve_all_spectra, solve_local_spectral)
from .basis import (BasisSet, CondensedElements, SnapshotSolution,
                    VelocityBasisFunction, build_basis_function,
                    build_basis_set, build_snapshot)
from .coarse import (CoarseSystem, MsSolution, assemble_coarse_system,
                     div_compat_residual, mass_residuals, solve_multiscale)
from .metrics import (ConvergenceRow, DecayProfile, ErrorReport, NormReport,
                      auto_layers, convergence_study, decay_study,
                      pressure_norms, relative_errors, solve_case,
                      velocity_norms)
