"""RCPN core: the paper's Reduced Colored Petri Net formalism and engine.

Public API
----------

Model construction:
    :class:`RCPN`, :class:`PipelineStage`, :class:`Place`,
    :class:`Transition`, :class:`SubNet`, :class:`OperationClass`,
    :class:`SymbolKind`, :class:`DecodeContext`

Tokens and operands:
    :class:`InstructionToken`, :class:`ReservationToken`,
    :class:`RegisterFile`, :class:`Register`, :class:`RegRef`, :class:`Const`

Simulation:
    :func:`generate_simulator`, :class:`SimulationEngine`,
    :class:`EngineOptions`, :class:`EngineContext`,
    :class:`SimulationStatistics`, :class:`InstructionDecoder`
"""

from repro.core.arc import InputArc, OutputArc, TokenKind
from repro.core.decoder import BindingPlan, DecodedTemplate, InstructionDecoder
from repro.core.engine import EngineContext, EngineOptions, SimulationEngine
from repro.core.exceptions import (
    CapacityError,
    HazardProtocolError,
    ModelError,
    RCPNError,
    SimulationError,
)
from repro.core.generator import GenerationReport, generate_simulator
from repro.core.net import RCPN
from repro.core.operands import Const, Operand, RegRef, Register, RegisterFile
from repro.core.operation_class import DecodeContext, OperationClass, SymbolKind
from repro.core.place import Place
from repro.core.scheduler import (
    StaticSchedule,
    calculate_sorted_transitions,
    capacity_plan,
    mark_feedback_places,
    place_evaluation_order,
    place_flow_graph,
)
from repro.core.stage import END_STAGE_NAME, PipelineStage
from repro.core.statistics import SimulationStatistics
from repro.core.subnet import SubNet
from repro.core.token import InstructionToken, ReservationToken, Token
from repro.core.transition import Transition

__all__ = [
    "RCPN",
    "PipelineStage",
    "END_STAGE_NAME",
    "Place",
    "Transition",
    "SubNet",
    "InputArc",
    "OutputArc",
    "TokenKind",
    "Token",
    "InstructionToken",
    "ReservationToken",
    "Operand",
    "RegisterFile",
    "Register",
    "RegRef",
    "Const",
    "OperationClass",
    "SymbolKind",
    "DecodeContext",
    "InstructionDecoder",
    "BindingPlan",
    "DecodedTemplate",
    "SimulationEngine",
    "EngineOptions",
    "EngineContext",
    "SimulationStatistics",
    "generate_simulator",
    "GenerationReport",
    "StaticSchedule",
    "calculate_sorted_transitions",
    "capacity_plan",
    "place_evaluation_order",
    "place_flow_graph",
    "mark_feedback_places",
    "RCPNError",
    "ModelError",
    "CapacityError",
    "SimulationError",
    "HazardProtocolError",
]
