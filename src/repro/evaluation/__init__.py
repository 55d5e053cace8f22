"""Model-based evaluation: the cost tables (one read-only numpy set),
cost model (its reference walk is also the fallback kernel), delta
evaluation, schedule suites, evaluator, traces."""

from .costmodel import AREA_TOL, INFEASIBLE, CostModel
from .delta import DeltaEvaluator
from .energy import JOULES_PER_MB, EnergyModel
from .evaluator import MappingEvaluator
from .kernel import FlatModel
from .schedules import ScheduleSuite, bfs_schedule, random_topological_schedule
from .trace import ScheduleTrace, TaskTrace, render_gantt, simulate_trace

__all__ = [
    "INFEASIBLE",
    "AREA_TOL",
    "CostModel",
    "DeltaEvaluator",
    "FlatModel",
    "MappingEvaluator",
    "JOULES_PER_MB",
    "EnergyModel",
    "ScheduleSuite",
    "bfs_schedule",
    "random_topological_schedule",
    "ScheduleTrace",
    "TaskTrace",
    "render_gantt",
    "simulate_trace",
]
