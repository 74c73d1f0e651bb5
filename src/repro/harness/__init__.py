"""Experiment harness: runners, campaign journal, tables, paper data."""

from . import paper_data
from .campaign import CampaignJournal
from .distributed import DistributedCoordinator, campaign_worker_main
from .runner import (
    AggregateResult,
    ExecutionPlan,
    SeedFailure,
    run_gatest,
    run_matrix,
)
from .tables import TextTable, fmt_mean_std, fmt_time, mean_std

__all__ = [
    "AggregateResult",
    "CampaignJournal",
    "DistributedCoordinator",
    "ExecutionPlan",
    "SeedFailure",
    "TextTable",
    "campaign_worker_main",
    "fmt_mean_std",
    "fmt_time",
    "mean_std",
    "paper_data",
    "run_gatest",
    "run_matrix",
]
