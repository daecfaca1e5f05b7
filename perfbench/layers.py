"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics derived from what they record.

``install`` must run after the workload's layers are imported and
before its run; the caller restores the originals with
``Ledger.restore`` when the run ends.
"""

from __future__ import annotations

from ledger import Ledger

#: Per-layer metric -> unit, in report order.
UNITS = {
    "des.run_s": "s",
    "des.run_calls": "count",
    "des.host_us_per_event": "us",
    "des.events_executed": "count",
    "des.events_scheduled": "count",
    "des.executed_ratio": "ratio",
    "des.peak_heap_depth": "count",
    "des.environments": "count",
    "noc.sweep_self_s": "s",
    "noc.fabric_calls": "count",
    "obs.observe_calls": "count",
    "utils.summary_add_calls": "count",
    "obs.fold_s": "s",
    "noc.sa_s": "s",
    "noc.sa_calls": "count",
    "noc.bnb_s": "s",
    "noc.mapping_other_s": "s",
    "noc.energy_eval_calls": "count",
    "noc.hops_calls": "count",
    "manet.compare_s": "s",
    "manet.find_route_s": "s",
    "manet.find_route_calls": "count",
    "manet.route_found_ratio": "ratio",
    "networkx.ksp_s": "s",
    "networkx.ksp_calls": "count",
    "networkx.paths_per_call": "paths/call",
    "networkx.dijkstra_s": "s",
    "networkx.dijkstra_calls": "count",
    "traffic.generate_s": "s",
    "traffic.hurst_s": "s",
    "traffic.acf_s": "s",
    "traffic.queue_s": "s",
    "experiments.self_s": "s",
    "experiments.preflight_s": "s",
}


def _found(route) -> str | None:
    return "manet.route_found" if route is not None else None


def install(ledger: Ledger) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    import networkx

    from repro import experiments, manet, noc, traffic
    from repro.des import Environment
    from repro.obs.metrics import Histogram
    from repro.utils.stats import SummaryStats

    wrap = ledger.wrap
    wrap(experiments, "run", "experiments.run")
    wrap(experiments, "preflight", "experiments.preflight")
    wrap(Environment, "run", "des.run")
    wrap(noc, "packet_size_sweep", "noc.sweep")
    wrap(noc, "bus_vs_noc_sweep", "noc.sweep")
    wrap(noc, "simulate_bus_fabric", "noc.fabric")
    wrap(noc, "simulate_noc_fabric", "noc.fabric")
    wrap(Histogram, "observe", "obs.observe", "timed")
    wrap(SummaryStats, "add", "utils.summary_add", "timed")
    wrap(noc, "simulated_annealing_mapping", "noc.sa")
    wrap(noc, "branch_and_bound_mapping", "noc.bnb")
    for name in ("adhoc_mapping", "greedy_mapping", "random_noc_mapping"):
        wrap(noc, name, "noc.mapping_other")
    wrap(noc.NocMapping, "communication_energy", "noc.energy_eval",
         "count")
    wrap(noc.Mesh2D, "hops", "noc.hops", "count")
    wrap(manet, "compare_protocols", "manet.compare")
    for protocol in manet.PROTOCOLS:
        wrap(protocol, "find_route", "manet.find_route", "timed",
             tally=_found)
    wrap(networkx, "shortest_simple_paths", "networkx.ksp", "iter")
    wrap(networkx, "dijkstra_path", "networkx.dijkstra", "timed")
    for name in ("fgn_trace", "aggregate_onoff_trace", "poisson_trace",
                 "mmpp2_trace"):
        wrap(traffic, name, "traffic.generate")
    for name in ("rs_hurst", "variance_time_hurst", "periodogram_hurst"):
        wrap(traffic, name, "traffic.hurst")
    wrap(traffic, "autocorrelation", "traffic.acf")
    wrap(traffic, "simulate_trace_queue", "traffic.queue")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(ledger: Ledger, kernel: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``kernel`` is the ``kernel_counters()`` snapshot taken over the
    run.  Every ``_s`` value is self time: the entry point's seconds
    minus those of the traced calls made inside it.
    """
    executed = kernel["events_executed"]
    scheduled = kernel["events_scheduled"]
    run_s = ledger.seconds("des.run")
    seconds, count = ledger.seconds, ledger.count
    values = {
        "des.run_s": run_s,
        "des.run_calls": count("des.run"),
        "des.host_us_per_event": _ratio(run_s * 1e6, executed),
        "des.events_executed": executed,
        "des.events_scheduled": scheduled,
        "des.executed_ratio": _ratio(executed, scheduled),
        "des.peak_heap_depth": kernel["peak_heap_depth"],
        "des.environments": kernel["environments"],
        "noc.sweep_self_s": seconds("noc.sweep", "noc.fabric"),
        "noc.fabric_calls": count("noc.fabric"),
        "obs.observe_calls": count("obs.observe"),
        "utils.summary_add_calls": count("utils.summary_add"),
        "obs.fold_s": seconds("obs.observe", "utils.summary_add"),
        "noc.sa_s": seconds("noc.sa"),
        "noc.sa_calls": count("noc.sa"),
        "noc.bnb_s": seconds("noc.bnb"),
        "noc.mapping_other_s": seconds("noc.mapping_other"),
        "noc.energy_eval_calls": count("noc.energy_eval"),
        "noc.hops_calls": count("noc.hops"),
        "manet.compare_s": seconds("manet.compare"),
        "manet.find_route_s": seconds("manet.find_route"),
        "manet.find_route_calls": count("manet.find_route"),
        "manet.route_found_ratio": _ratio(count("manet.route_found"),
                                          count("manet.find_route")),
        "networkx.ksp_s": seconds("networkx.ksp"),
        "networkx.ksp_calls": count("networkx.ksp"),
        "networkx.paths_per_call": _ratio(count("networkx.ksp.items"),
                                          count("networkx.ksp")),
        "networkx.dijkstra_s": seconds("networkx.dijkstra"),
        "networkx.dijkstra_calls": count("networkx.dijkstra"),
        "traffic.generate_s": seconds("traffic.generate"),
        "traffic.hurst_s": seconds("traffic.hurst"),
        "traffic.acf_s": seconds("traffic.acf"),
        "traffic.queue_s": seconds("traffic.queue"),
        "experiments.self_s": seconds("experiments.run"),
        "experiments.preflight_s": seconds("experiments.preflight"),
    }
    assert values.keys() == UNITS.keys()
    return values
