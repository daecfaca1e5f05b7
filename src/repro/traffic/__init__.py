"""Self-similar and Markovian traffic modeling (§3.2, [19])."""

from repro.traffic.fgn import FgnGenerator, fgn_autocovariance, fgn_trace
from repro.traffic.hurst import (
    aggregate_series,
    autocorrelation,
    periodogram_hurst,
    rs_hurst,
    variance_time_hurst,
)
from repro.traffic.markovian import MMPP2, mmpp2_trace, poisson_trace
from repro.traffic.onoff import (
    OnOffSource,
    aggregate_onoff_trace,
    pareto_sojourns,
    taqqu_hurst,
)
from repro.traffic.queueing import TraceQueueResult, simulate_trace_queue

__all__ = [
    "FgnGenerator",
    "fgn_autocovariance",
    "fgn_trace",
    "OnOffSource",
    "pareto_sojourns",
    "aggregate_onoff_trace",
    "taqqu_hurst",
    "MMPP2",
    "poisson_trace",
    "mmpp2_trace",
    "autocorrelation",
    "aggregate_series",
    "rs_hurst",
    "variance_time_hurst",
    "periodogram_hurst",
    "TraceQueueResult",
    "simulate_trace_queue",
]
