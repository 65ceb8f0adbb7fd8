"""One complete band solve: assemble, certify completeness, associate modes.

The discontinuous Galerkin discretization reduces to a generalized
symmetric eigenproblem.  One LDL^T factorization of the shifted pencil
A - omega_max^2 M certifies the band: its inertia is the number of
eigenvalues below the edge.  All of them are then computed, by LAPACK's
generalized solver at this size or by shift-invert Lanczos with the same
factor on larger meshes.  Each eigenvector is matched to the Fourier mode
with the largest projection amplitude.
"""

from anisodg import BasisSpec, FieldDirection, MeshConfig, SolveSetup, \
    run_band_solve
from anisodg.fields import CoefficientField
from anisodg.geometry import Alignment

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

report = result.band_report()
print(f"\nmax band error: {report.max_error:.3e}; "
      f"band modes without an in-band eigenpair: {report.missing_modes}")
