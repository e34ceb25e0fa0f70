"""Memoryless qubit collision-model simulator with a thermodynamic ledger."""

from .engine import (CollisionConfig, NoSteadyStateError, Trajectory,
                     collide_once, propagate_collisions, run,
                     steady_state_by_iteration)
from .lindblad import (GKSLGenerator, build_generator, evolve_continuous,
                       steady_state_kernel, steady_state_of, vectorize)
from .linalg import (clamp_to_density, exp_minus_i, kron, partial_trace,
                     trace_distance)
from .model import (AncillaPrep, CouplingSpec, QubitHamiltonian, SscAngles,
                    bloch_state, build_interaction, collision_unitary,
                    coupling_to_ssc, diagonal_coupling, gibbs_state,
                    pure_state, ssc_coupling, ssc_to_coupling)
from .observables import (SteadyStateReport, effective_beta, ergotropy,
                          is_passive, l1_coherence)
from .thermo import (ThermoLedger, collision_heat, collision_work, entropy,
                     entropy_production_collision, heat_current,
                     mutual_information, relative_entropy,
                     weak_coupling_sigma_rate, work_current)

__version__ = "0.1.0"
