"""In-simulation fault injection and degradation sweeps (§5).

The paper's ambient-multimedia thesis is that distributed multimedia
systems must "operate with limited resources and failing parts".  This
package makes failure a first-class *simulation event* rather than an
offline trace:

* :mod:`repro.resilience.faults` — :class:`FaultInjector` processes
  that break and repair live model components (stream channels) on
  sampled fail/repair schedules, or only record outage windows;
* :mod:`repro.resilience.harness` — QoS-vs-fault-rate sweeps over the
  existing experiments, quantifying *graceful degradation* (the paper's
  redundancy/adaptation claim) against crash-or-stall baselines.
"""

from repro.resilience.faults import (
    FailureModel,
    FaultEvent,
    FaultInjector,
    all_down_intervals,
    session_fault_plan,
)
from repro.resilience.harness import (
    DegradationCurve,
    QosPoint,
    ambient_qos,
    arq_streaming_qos,
    fault_rate_sweep,
    format_report,
    manet_qos,
    resilience_report,
    stream_pipeline_qos,
)

__all__ = [
    # faults
    "FailureModel",
    "FaultEvent",
    "FaultInjector",
    "session_fault_plan",
    "all_down_intervals",
    # harness
    "QosPoint",
    "DegradationCurve",
    "fault_rate_sweep",
    "stream_pipeline_qos",
    "arq_streaming_qos",
    "manet_qos",
    "ambient_qos",
    "resilience_report",
    "format_report",
]
