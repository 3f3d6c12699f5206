"""
Exactness of the assembled interconnection structure
====================================================

The convection matrix D is skew-symmetric, bitwise, on every mesh, so
the paper's gradient matrix R = D^T is -D and the code needs D alone.
That is what makes the inviscid semi-discrete system conserve the
Hamiltonian: the power e^T D e vanishes identically, not just to
truncation order.
"""

import numpy as np

from phburgers import fem1d, phsystem

for n in (1, 2, 7, 100, 321):
    ops = fem1d.assemble_operators(fem1d.build_mesh(n))
    d = ops.convection.toarray()
    print(f"n_elems = {n:4d}:  max|D + D^T| = {np.abs(d + d.T).max():.1f}"
          f"   (max|D| = {np.abs(d).max():.4g})")

# the same identity seen as physics: on any consistent inviscid state
# the storage rate e^T M (dv/dt) is exactly zero
ops = fem1d.assemble_operators(fem1d.build_mesh(64))
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(100):
    st = phsystem.make_state(ops, rng.standard_normal(ops.mesh.n_interior))
    worst = max(worst, abs(st.e @ phsystem.structure_apply(ops, st)))
print(f"\nlargest |e^T M dv/dt| over 100 random inviscid states: {worst:.3e}")

# with viscosity the same pairing balances the dissipation integral
nu = 1e-2
worst = 0.0
for _ in range(100):
    st = phsystem.make_state(ops, rng.uniform(0.2, 1.2, ops.mesh.n_interior), nu=nu)
    power = float(st.e @ phsystem.structure_apply(ops, st))
    vq = fem1d.quadrature_values(ops.mesh, st.v)
    rq = fem1d.quadrature_values(ops.mesh, st.e_r)
    diss = fem1d.integrate(ops.mesh, vq * rq**2) / nu
    worst = max(worst, abs(power + diss) / abs(diss))
print(f"largest relative defect of the viscous power balance:      {worst:.3e}")
