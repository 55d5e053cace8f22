"""Model-based evaluation: cost model (its reference walk is also the
fallback kernel), flat tables for the compiled kernel, delta
evaluation, schedule suites, evaluator, traces."""

from .costmodel import AREA_TOL, INFEASIBLE, CostModel
from .delta import DeltaEvaluator
from .energy import JOULES_PER_MB, EnergyModel, energy_joules
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
    "energy_joules",
    "ScheduleSuite",
    "bfs_schedule",
    "random_topological_schedule",
    "ScheduleTrace",
    "TaskTrace",
    "render_gantt",
    "simulate_trace",
]
