"""Analysis orchestration: exact values, bounds, gaps, and survey aggregation."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

from . import bounds as bounds_mod
from .alliance_solver import (
    AllianceResult,
    AllianceSpec,
    SearchLimits,
    VARIANTS,
    domination_number,
    min_alliance_number,
)
from .generators import GraphFamilySpec, build
from .graph_core import Graph, girth
from .io_formats import write_edgelist, write_graph6
from .spectral import UndefinedQuantityError, spectral_summary

__all__ = [
    "DEFAULT_SPECS",
    "EXACT_SPECS",
    "SoundnessViolation",
    "analyze",
    "survey_rows",
    "summarize_survey",
    "report_to_json",
    "analyze_to_csv",
    "summary_to_csv",
]

# CLI token -> exact value name, one per row of ``alliance_solver.VARIANTS``
# and in its order.
EXACT_SPECS: dict[str, str] = {
    "def": "defensive",
    "strongdef": "strong_defensive",
    "globdef": "global_defensive",
    "globstrongdef": "global_strong_defensive",
    "globoff": "global_offensive",
    "globstrongoff": "global_strong_offensive",
    "globdual": "global_dual",
    "globstrongdual": "global_strong_dual",
    "dom": "domination",
}

# By default every row is computed: each is the target of some theorem.
DEFAULT_SPECS: tuple[str, ...] = tuple(VARIANTS)


class SoundnessViolation(RuntimeError):
    """A bound exceeded the exact value it is supposed to stay below."""

    def __init__(self, message: str, edgelist: str, graph6: str) -> None:
        super().__init__(message)
        self.edgelist = edgelist
        self.graph6 = graph6


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _girth_json(value: int | float) -> int | None:
    return None if math.isinf(value) else int(value)


def _solve_exact(g: Graph, spec: AllianceSpec, limits: SearchLimits, known: dict[str, AllianceResult]) -> AllianceResult:
    # perfbench traces the domination row by this name (bench_trace.install).
    # Domination implies no other row, so it has no use for ``known``, the
    # results already found for ``g``.
    if spec.name == "domination":
        return domination_number(g, limits)
    return min_alliance_number(g, spec, limits, _known=known)


def analyze(
    g: Graph,
    *,
    label: str = "graph",
    labels: tuple[str, ...] | None = None,
    specs: Sequence[str] | None = None,
    theorems: Sequence[str] | None = None,
    bounds_only: bool = False,
    limits: SearchLimits | None = None,
    deterministic: bool = False,
) -> dict:
    """Analyze one graph: metadata, spectra, exact values, bounds, gaps.

    Requests are checked before any work: an unknown spec name or theorem
    id raises ``ValueError``, and exact solving runs before girth and
    spectra, so an order above ``limits.max_n`` raises the solver's
    :class:`ResourceLimitError` at once. ``bounds_only`` skips exact
    solving at every order. The returned dict is JSON-ready and round-trips
    through ``json`` unchanged.

    Every applicable bound with an exact target is certified: a bound above
    its exact value raises :class:`SoundnessViolation`, whose message names
    ``label`` and the row and which carries the graph as an edge list (in
    ``labels`` when given) and as graph6.
    """
    limits = limits or SearchLimits()
    # A repeated name is solved once, in the place it first appears.
    requested = [AllianceSpec(name) for name in dict.fromkeys(DEFAULT_SPECS if specs is None else specs)]
    bounds_mod.select_theorems(theorems)

    # Each search starts from the results before it (min_alliance_number).
    results: dict[str, AllianceResult] = {}
    for spec in [] if bounds_only else requested:
        results[spec.name] = _solve_exact(g, spec, limits, results)
    exact = {name: {"value": result.value, "witness": list(result.witness)} for name, result in results.items()}
    girth_value = girth(g)
    try:
        summary = spectral_summary(g)
    except UndefinedQuantityError:
        summary = None

    exact_by_target = {name: entry["value"] for name, entry in exact.items()}
    if not math.isinf(girth_value):
        exact_by_target["girth"] = int(girth_value)

    bound_rows = []
    for row in bounds_mod.evaluate_all(g, summary, theorems):
        entry: dict = {
            "theorem": row.theorem,
            "target": row.target,
            "value": row.value,
            "applicable": row.applicable,
        }
        if row.reason is not None:
            entry["reason"] = row.reason
        if row.degenerate:
            entry["degenerate"] = True
        target_exact = exact_by_target.get(row.target)
        if row.applicable and target_exact is not None:
            entry["exact"] = target_exact
            entry["gap"] = target_exact - row.value
            if entry["gap"] < 0:
                raise SoundnessViolation(
                    f"bound exceeded exact value on {label}: {entry}",
                    edgelist=write_edgelist(g, labels),
                    graph6=write_graph6(g),
                )
        bound_rows.append(entry)

    report: dict = {
        "label": label,
        "graph": {
            "n": g.n,
            "m": g.m,
            "min_degree": g.min_degree,
            "max_degree": g.max_degree,
            "regular": g.regular,
            "connected": g.components == 1,
            "girth": _girth_json(girth_value),
        },
    }
    if labels is not None:
        report["labels"] = list(labels)
    if summary is not None:
        report["spectral"] = {
            "spectral_radius": _round12(summary.spectral_radius),
            "algebraic_connectivity": _round12(summary.algebraic_connectivity),
            "laplacian_radius": _round12(summary.laplacian_radius),
            "laplacian_spectrum": [_round12(x) for x in summary.laplacian_spectrum],
        }
    else:
        report["spectral"] = None
    report["exact"] = exact
    report["bounds"] = bound_rows
    if not deterministic:
        report["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return report


def survey_rows(
    spec: GraphFamilySpec,
    count: int,
    seed: int | None = None,
    *,
    limits: SearchLimits | None = None,
) -> Iterator[dict]:
    """Yield one soundness/tightness row per sampled graph.

    Sample ``i`` uses family seed ``seed + i``, where ``seed`` defaults to
    ``spec.seed`` (deterministic families ignore it). The check needs exact
    values, so a sample above ``limits.max_n`` raises the solver's
    :class:`ResourceLimitError`. ``analyze`` certifies each sample and
    raises :class:`SoundnessViolation` the moment an applicable bound
    exceeds its exact target; the message names the sample's family spec
    with its seed, which ``alliance analyze <spec>`` replays. A row's
    ``violations`` is therefore always 0.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    start = spec.seed if seed is None else seed
    for index in range(count):
        sample = replace(spec, seed=start + index)
        g = build(sample)
        report = analyze(g, label=str(sample), limits=limits, deterministic=True)
        yield {
            "index": index,
            "seed": sample.seed,
            "n": g.n,
            "m": g.m,
            "bounds": [
                {key: row[key] for key in ("theorem", "target", "value", "exact", "gap")}
                for row in report["bounds"]
                if "gap" in row
            ],
            "violations": 0,
        }


def summarize_survey(rows: Iterable[dict]) -> list[dict]:
    """Aggregate survey rows, read once as they arrive, into a per-(theorem, target) summary table."""
    table: dict[tuple[str, str], dict] = {}
    for row in rows:
        for entry in row["bounds"]:
            key = (entry["theorem"], entry["target"])
            agg = table.setdefault(
                key,
                {
                    "theorem": entry["theorem"],
                    "target": entry["target"],
                    "applicable": 0,
                    "violations": 0,  # analyze raises on a violation; the column stays for its readers
                    "tight": 0,
                    "mean_gap": 0.0,
                    "max_gap": 0,
                },
            )
            agg["applicable"] += 1
            if entry["gap"] == 0:
                agg["tight"] += 1
            agg["mean_gap"] += entry["gap"]
            agg["max_gap"] = max(agg["max_gap"], entry["gap"])
    out = []
    for key in sorted(table):
        agg = table[key]
        agg["mean_gap"] = _round12(agg["mean_gap"] / agg["applicable"])
        out.append(agg)
    return out


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text, quoting a field only when it holds a comma, a quote or a newline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def analyze_to_csv(report: dict) -> str:
    """Flatten the bounds table of an analyze report for spreadsheets."""
    rows = (
        (report["label"], row["theorem"], row["target"], row["value"], str(row["applicable"]).lower(),
         str(row.get("degenerate", False)).lower(), row.get("exact"), row.get("gap"), row.get("reason"))
        for row in report["bounds"]
    )
    return _csv(("label", "theorem", "target", "bound", "applicable", "degenerate", "exact", "gap", "reason"), rows)


_SUMMARY_COLUMNS = ("theorem", "target", "applicable", "violations", "tight", "mean_gap", "max_gap")


def summary_to_csv(summary: Sequence[dict]) -> str:
    return _csv(_SUMMARY_COLUMNS, ([agg[column] for column in _SUMMARY_COLUMNS] for agg in summary))
