"""Exact graph alliance numbers, spectral quantities, and certified lower bounds."""

from .alliance_solver import (
    AllianceResult,
    AllianceSpec,
    ResourceLimitError,
    SearchBudgetExceeded,
    SearchLimits,
    domination_number,
    is_alliance,
    is_dominating_set,
    min_alliance_number,
    spec_from_name,
)
from .bounds import BoundResult, THEOREM_IDS, evaluate_all, safe_ceil
from .generators import GraphFamilySpec, build
from .graph_core import Graph, VertexSet, girth
from .io_formats import ParseError, parse_graph, write_edgelist, write_graph6
from .report import SoundnessViolation, analyze, summarize_survey, survey_rows
from .spectral import (
    ConvergenceError,
    SpectralSummary,
    UndefinedQuantityError,
    spectral_summary,
)

__version__ = "0.1.0"
