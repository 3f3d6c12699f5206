"""Structure-preserving P2 finite element solver for Burgers' equation.

The package discretizes the inviscid and viscous Burgers' equation as a
port-Hamiltonian system: a constant interconnection structure built from
finite element matrices, with all nonlinearity confined to the
constitutive relation between state and co-state.  A Crank-Nicolson
integrator with Newton's method and adaptive step control advances the
discrete system while a power ledger tracks how well the discrete
energy balances hold.
"""

from .fem1d import (
    FeOperators,
    Mesh1D,
    assemble_operators,
    assemble_quadratic_load,
    assemble_weighted_mass,
    build_mesh,
    mesh_for_width,
)
from .phsystem import (
    State,
    make_state,
    project_costate,
    rhs,
    solve_viscous_ports,
)
from .integrator import (
    RunConfig,
    RunResult,
    StepFailure,
    newton_solve,
    run_simulation,
    step_residual,
)
from .diagnostics import (
    PowerLedger,
    balance_variation,
    characteristics_l2_error,
    characteristics_solution,
    detect_front,
    dissipation_rates,
    hamiltonian,
    kinetic_energy,
    rankine_hugoniot_speed,
    shock_dissipation,
    shock_formation_time,
)
from .sweep import SweepGrid, SweepResult, emit_table, run_sweep

__all__ = [
    "FeOperators",
    "Mesh1D",
    "assemble_operators",
    "assemble_quadratic_load",
    "assemble_weighted_mass",
    "build_mesh",
    "mesh_for_width",
    "State",
    "make_state",
    "project_costate",
    "rhs",
    "solve_viscous_ports",
    "RunConfig",
    "RunResult",
    "StepFailure",
    "newton_solve",
    "run_simulation",
    "step_residual",
    "PowerLedger",
    "balance_variation",
    "characteristics_l2_error",
    "characteristics_solution",
    "detect_front",
    "dissipation_rates",
    "hamiltonian",
    "kinetic_energy",
    "rankine_hugoniot_speed",
    "shock_dissipation",
    "shock_formation_time",
    "SweepGrid",
    "SweepResult",
    "emit_table",
    "run_sweep",
]

__version__ = "0.1.0"
