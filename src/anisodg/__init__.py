"""Locally field-aligned discontinuous Galerkin band-spectrum solver for the
2D periodic anisotropic wave eigenproblem."""

from .basis import BasisSpec, dof_parallel, dof_perpendicular, gauss_rule
from .eigensolve import BandRequest, CompletenessError, band_eig, bloch_eig
from .fields import CoefficientField, MagneticField, iota_profile, load_field
from .geometry import (Alignment, FieldDirection, MeshConfig, aspect_ratios,
                       build_mesh, choose_alignment)
from .spectrum import (FourierProjector, SolveSetup, associate_modes,
                       compare_band_errors, convergence_study, exact_spectrum,
                       run_band_solve)

__all__ = [
    "Alignment", "BandRequest", "BasisSpec", "CoefficientField",
    "CompletenessError", "FieldDirection", "FourierProjector", "MagneticField",
    "MeshConfig", "SolveSetup", "aspect_ratios", "associate_modes",
    "band_eig", "bloch_eig", "build_mesh", "choose_alignment",
    "compare_band_errors", "convergence_study",
    "dof_parallel", "dof_perpendicular", "exact_spectrum", "gauss_rule",
    "iota_profile", "load_field", "run_band_solve",
]
