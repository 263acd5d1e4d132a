"""ternsim: switch-level simulator for memristor-CMOS ternary logic decoders.

Two backends evaluate the same gate-level topologies: an analog nonlinear
nodal engine (:mod:`ternsim.engine`) and a two-bit-encoded digital evaluator
(:mod:`ternsim.digital`).  :mod:`ternsim.analysis` verifies both against the
reference ternary semantics in :mod:`ternsim.core`.
"""

from .core import (BitPair, INDETERMINATE, Indeterminate, InvalidEncoding,
                   TernaryLevel, VoltageBands, as_level, decode_2bit,
                   encode_2bit, level_to_voltage, levels_of, ref_nti, ref_pti,
                   ref_sti, ref_tand, ref_tor, voltage_to_level)
from .devices import (MemristorParams, MosfetParams, NonpositiveTimestep,
                      digital_memristance, memristance, mosfet_current,
                      update_state)
from .netlist import (CellKind, Circuit, GateNetwork, build_cell,
                      builtin_network, elaborate, mutate_network, parse,
                      serialize)
from .engine import (NonConvergence, NotRelaxed, NotSettled, SingularSystem,
                     SolverConfig, SolverError, Stimulus, TransientError,
                     Waveform, run_transient, solve_dc, steady_output, step)
from .digital import (EncodedTrace, divider_emulation, eval_circuit,
                      eval_gate, eval_levels, or_reduce_segment, run_trace)
from .analysis import (GlitchEvent, ResourceReport, TruthTableReport,
                       detect_glitches, measure_settling, resource_report,
                       seven_segment_render, verify)

__version__ = "0.1.0"
