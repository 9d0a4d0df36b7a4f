"""Cluster sizing: elastic fleet vs the best fixed-rate fleet.

The fleet-level version of the paper's elasticity claim: against the
same latency SLO and accuracy floor, a fleet that degrades through the
cost-ordered profile table needs strictly fewer node-hours than the
best fleet locked to a single slice rate.  Two mechanisms produce the
gap, one per scenario:

* **diurnal** — the solver's accuracy-budget peak shave: off-peak spare
  capacity serves *above* the floor, buying the right to serve the peak
  *below* it (still >= the floor on demand-weighted average), so peak
  windows need fewer nodes than any fixed fleet that must hold floor
  accuracy on every request.
* **flash** — an *unforecast* 6x crowd.  The elastic fleet absorbs it
  instantly by degrading (capacity at rate 0.25 is ~9x the planned
  profile's); a fixed fleet can only add nodes, which takes boot time
  it does not have, so the only fixed fleet that still meets the SLO is
  an oracle statically provisioned for a peak nobody forecast.

Fixed baselines compared (per admissible profile): a predictive
autoscaled schedule from the forecast, a static fleet at the forecast
peak, and the oracle static fleet at the *realized* peak.  A baseline
counts only if its simulation serves every request inside the SLO.
Results go to ``BENCH_cluster_sizing.json`` and EXPERIMENTS.md.
"""

import json
import math

from repro.cluster import (
    AutoscalerConfig,
    CostTable,
    NodeSpec,
    SimulationConfig,
    SizingRequest,
    diurnal_spec,
    flash_spec,
    plan_capacity,
    simulate_autoscaling,
)
from repro.models import MLP
from repro.runtime.replica import LatencyProfile
from repro.utils import format_table

ACCURACY = {0.25: 0.62, 0.5: 0.85, 0.75: 0.91, 1.0: 0.94}
FULL_LATENCY = 0.002
SLO = 0.1
FLOOR = 0.9
WINDOW = 300.0
SEED = 0


def _table() -> CostTable:
    model = MLP(32, [64, 64], 8, seed=0)
    model.eval()
    return CostTable.from_model(model, (1, 32), ACCURACY,
                                LatencyProfile(FULL_LATENCY))


def _run_scenario(spec, table, node_spec):
    request = SizingRequest(spec=spec, window_seconds=WINDOW,
                            latency_slo=SLO, accuracy_floor=FLOOR)
    plan = plan_capacity(request, table, node_spec)
    sim = SimulationConfig(window_seconds=WINDOW, latency_slo=SLO,
                           seed=SEED)
    scaling = AutoscalerConfig()

    elastic = simulate_autoscaling(
        spec, table, node_spec, sim, scaling, plan.replicas_per_node,
        schedule=plan.schedule, label="elastic")

    realized_peak = float(spec.realized_windows(WINDOW).max()) \
        * (1.0 + request.headroom)
    fixed_runs = []
    for fixed in plan.fixed:
        if not fixed.feasible:
            continue
        single = CostTable([fixed.cost])
        label = f"fixed-{fixed.cost.label()}"
        fixed_runs.append(simulate_autoscaling(
            spec, single, node_spec, sim, scaling,
            fixed.replicas_per_node, schedule=fixed.schedule,
            label=f"{label}-predictive"))
        fixed_runs.append(simulate_autoscaling(
            spec, single, node_spec, sim, scaling,
            fixed.replicas_per_node, static=True,
            initial_nodes=fixed.nodes_static, label=f"{label}-static"))
        oracle = max(math.ceil(realized_peak / fixed.node_capacity_qps), 1) \
            + request.ha_spares
        fixed_runs.append(simulate_autoscaling(
            spec, single, node_spec, sim, scaling,
            fixed.replicas_per_node, static=True, initial_nodes=oracle,
            label=f"{label}-oracle-static"))

    feasible = [r for r in fixed_runs if r.meets_slo]
    best_fixed = min(feasible, key=lambda r: r.node_hours) \
        if feasible else None
    return plan, elastic, fixed_runs, best_fixed


def test_elastic_fleet_beats_best_fixed(emit, bench_path):
    table = _table()
    node_spec = NodeSpec()
    scenarios = {
        "diurnal": diurnal_spec(base=20000.0),
        "flash": flash_spec(base=20000.0, factor=6.0),
    }

    rows, results = [], {}
    for name, spec in scenarios.items():
        plan, elastic, fixed_runs, best_fixed = _run_scenario(
            spec, table, node_spec)
        assert elastic.meets_slo, (
            f"{name}: elastic fleet dropped "
            f"{elastic.dropped_requests} requests")
        assert best_fixed is not None, (
            f"{name}: no fixed-rate fleet met the SLO at all")
        assert elastic.node_hours < best_fixed.node_hours, (
            f"{name}: elastic used {elastic.node_hours:.1f} node-hours, "
            f"best fixed ({best_fixed.label}) used "
            f"{best_fixed.node_hours:.1f}")

        savings = best_fixed.node_hours - elastic.node_hours
        rows.append([name, round(elastic.node_hours, 1),
                     best_fixed.label, round(best_fixed.node_hours, 1),
                     f"{100 * savings / best_fixed.node_hours:.1f}%",
                     round(elastic.mean_accuracy, 4)])
        results[name] = {
            "elastic": elastic.to_dict(),
            "fixed": [r.to_dict() for r in fixed_runs],
            "best_fixed": best_fixed.label,
            "savings_node_hours": round(savings, 3),
            "savings_fraction": round(savings / best_fixed.node_hours, 4),
            "planned_mean_accuracy": round(plan.mean_accuracy, 6),
        }

    emit("cluster_sizing", format_table(
        ["scenario", "elastic node-h", "best fixed", "fixed node-h",
         "savings", "elastic accuracy"], rows))

    with open(bench_path("cluster_sizing", False), "w") as handle:
        json.dump({
            "benchmark": "cluster_sizing",
            "config": {
                "model": "MLP(32, [64, 64], 8)",
                "accuracy": {str(k): v for k, v in ACCURACY.items()},
                "full_latency_s": FULL_LATENCY,
                "slo_s": SLO,
                "accuracy_floor": FLOOR,
                "window_seconds": WINDOW,
                "node_spec": node_spec.to_dict(),
                "seed": SEED,
            },
            "scenarios": results,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
