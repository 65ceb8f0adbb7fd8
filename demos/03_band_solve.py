"""One complete band solve: assemble, certify completeness, associate modes.

The discontinuous Galerkin discretization reduces to a generalized
symmetric eigenproblem.  With constant coefficients it commutes with cell
translations, so a DFT over the cell lattice splits it into one small
Hermitian block per wavevector.  The LDL^T inertia of the shifted blocks
A(k) - omega_max^2 M(k) certifies the band: together they count the
eigenvalues below the edge.  LAPACK then solves each block.  (Variable
coefficients take one LDL^T factorization of the global shifted pencil
and block shift-invert Lanczos instead.)  Each eigenvector is matched to the
Fourier mode with the largest projection amplitude.  The max band error is
taken per band mode, from the eigenpair that represents it best; a band mode
that no eigenpair represents counts as an error of 1.
"""

from anisodg import BasisSpec, FieldDirection, MeshConfig, SolveSetup, \
    run_band_solve
from anisodg.fields import CoefficientField
from anisodg.geometry import Alignment
from anisodg.spectrum import max_band_mode_error

setup = SolveSetup(
    mesh_config=MeshConfig(4, 8, Alignment.BOTTOM_TOP,
                           FieldDirection(1.165939761, 1.0)),
    spec=BasisSpec(3, 5),
    alpha=CoefficientField.constant(1.0),
    beta=CoefficientField.constant(1.0),
    omega_max_sq=0.2)

result = run_band_solve(setup)
sol = result.solution

print(f"DoF = {setup.dof()}, nnz(A) = {result.nnz_percent:.2f}% "
      f"of the lower triangle")
print(f"eigenvalues <= {setup.omega_max_sq}: {len(sol)} "
      f"(LDL^T inertia demands {sol.inertia_count}) via {sol.method}")
print(f"worst residual: {sol.residuals.max():.2e}\n")

print("  omega^2 computed   mode        exact        error")
for row in result.assoc:
    print(f"  {row.omega2_computed: .10f}  ({row.mode[0]:3d},{row.mode[1]:4d})"
          f"  {row.omega2_exact:.8f}  {row.error:.2e} ({row.error_kind})")

max_err, missing = max_band_mode_error(result)
print(f"\nmax band error (per band mode, its best-associated eigenpair): "
      f"{max_err:.3e}; band modes without an eigenpair: {missing}")
