"""Cross Graph Coordinator: joint sliding windows and AOE (Algorithm 2)."""

from .aoe import SLIDE_COLUMN_WISE, SLIDE_ROW_WISE, approximate_outlier_estimation
from .oracle import aoe_precision, oracle_decisions
from .render import (
    adjacency_step_matrix,
    node_name,
    render_step_matrix,
    schedule_summary,
    schedule_table,
)
from .window import (
    SCHEDULERS,
    WindowSchedule,
    WindowStep,
    coordinated_window_schedule,
    double_window_schedule,
    joint_window_schedule,
    oracle_window_schedule,
    single_window_schedule,
)

__all__ = [
    "approximate_outlier_estimation",
    "SLIDE_ROW_WISE",
    "SLIDE_COLUMN_WISE",
    "WindowStep",
    "WindowSchedule",
    "single_window_schedule",
    "double_window_schedule",
    "joint_window_schedule",
    "coordinated_window_schedule",
    "SCHEDULERS",
    "aoe_precision",
    "oracle_decisions",
    "schedule_table",
    "schedule_summary",
    "node_name",
    "adjacency_step_matrix",
    "render_step_matrix",
    "oracle_window_schedule",
]
