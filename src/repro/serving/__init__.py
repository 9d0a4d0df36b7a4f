"""Dynamic-workload serving: the Sec. 4.1 example application."""

from .workload import (
    constant_rate,
    diurnal_rate,
    generate_arrivals,
    peak_to_trough,
    spike_rate,
)
from .controller import (
    AdaptiveSliceRateController,
    CascadeController,
    CostTableController,
    FixedRateController,
    ProfileTableController,
    SliceRateController,
)
from .simulator import (
    ServingReport,
    WindowStats,
    accuracy_for_rate,
    measured_accuracy_table,
    simulate_serving,
)

__all__ = [
    "constant_rate",
    "diurnal_rate",
    "spike_rate",
    "generate_arrivals",
    "peak_to_trough",
    "CostTableController",
    "SliceRateController",
    "AdaptiveSliceRateController",
    "CascadeController",
    "FixedRateController",
    "ProfileTableController",
    "ServingReport",
    "WindowStats",
    "accuracy_for_rate",
    "measured_accuracy_table",
    "simulate_serving",
]
