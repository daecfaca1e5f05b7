"""Extensible processors / ASIPs (§3.1): ISA model, workloads, the
ISS-style profiler, custom-instruction selection and the Fig.2 design
flow."""

from repro.asip.blocks import (
    PredefinedBlock,
    STANDARD_BLOCKS,
    select_blocks,
)
from repro.asip.extensions import (
    SelectionResult,
    select_extensions_greedy,
    select_extensions_optimal,
)
from repro.asip.flow import (
    ExtensibleProcessorFlow,
    FlowIteration,
    FlowReport,
)
from repro.asip.isa import (
    CustomInstruction,
    ExtensibleProcessor,
    IsaRestrictions,
)
from repro.asip.parameters import ProcessorParameters
from repro.asip.profiler import IssProfiler, KernelCycles, Profile
from repro.asip.workloads import (
    Kernel,
    Workload,
    mpeg2_encoder_workload,
    voice_recognition_workload,
)

__all__ = [
    "IsaRestrictions",
    "CustomInstruction",
    "ExtensibleProcessor",
    "Kernel",
    "Workload",
    "voice_recognition_workload",
    "mpeg2_encoder_workload",
    "IssProfiler",
    "Profile",
    "KernelCycles",
    "SelectionResult",
    "select_extensions_greedy",
    "select_extensions_optimal",
    "ExtensibleProcessorFlow",
    "FlowReport",
    "FlowIteration",
    "PredefinedBlock",
    "STANDARD_BLOCKS",
    "select_blocks",
    "ProcessorParameters",
]
