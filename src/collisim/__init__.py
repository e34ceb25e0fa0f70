"""Memoryless qubit collision-model simulator with a thermodynamic ledger."""

from .engine import (CollisionConfig, NoSteadyStateError, Trajectory,
                     propagate_collisions, run, steady_state_by_iteration)
from .lindblad import build_generator, rate_matrix, steady_state_of
from .linalg import clamp_to_density, exp_minus_i, kron, trace_distance
from .model import (AncillaPrep, CouplingSpec, QubitHamiltonian, SscAngles,
                    bloch_state, build_interaction, collision_unitary,
                    density_matrix, diagonal_coupling, gibbs_state, pure_state,
                    ssc_coupling, ssc_to_coupling)
from .observables import (SteadyStateReport, effective_beta, ergotropy,
                          l1_coherence)
from .thermo import ThermoLedger, change_functional, current_evaluators

__version__ = "0.1.0"
