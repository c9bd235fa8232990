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
    ResourceLimitError,
    SearchLimits,
    VARIANTS,
    domination_number,
    min_alliance_number,
    spec_from_name,
)
from .generators import GraphFamilySpec, build
from .graph_core import Graph, degree_stats, girth, is_connected
from .io_formats import write_edgelist
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
    "off": "offensive",
    "strongoff": "strong_offensive",
    "dom": "domination",
}

# By default only the values some theorem bounds are computed; the
# non-global offensive numbers are computed only on request.
DEFAULT_SPECS: tuple[str, ...] = tuple(name for name in VARIANTS if name in bounds_mod.TARGETS)


class SoundnessViolation(RuntimeError):
    """A bound exceeded the exact value it is supposed to stay below."""

    def __init__(self, message: str, edgelist: str, detail: dict) -> None:
        super().__init__(message)
        self.edgelist = edgelist
        self.detail = detail


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _girth_json(value: int | float) -> int | None:
    return None if math.isinf(value) else int(value)


def _solve_exact(g: Graph, name: str, limits: SearchLimits) -> dict:
    if name == "domination":
        result = domination_number(g, limits)
    else:
        result = min_alliance_number(g, spec_from_name(name), limits)
    return {
        "value": result.value,
        "witness": list(result.witness),
        "nodes_explored": result.nodes_explored,
    }


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

    Exact solving is skipped (with a notation per entry) when the order
    exceeds the solver ceiling; everything else still runs. The returned
    dict is JSON-ready and round-trips through ``json`` unchanged.
    """
    limits = limits or SearchLimits()
    spec_names = tuple(specs) if specs is not None else DEFAULT_SPECS
    for name in spec_names:
        if name not in VARIANTS:
            raise ValueError(f"unknown alliance spec {name!r}; valid names: {', '.join(VARIANTS)}")

    stats = degree_stats(g)
    girth_value = girth(g)
    try:
        summary = spectral_summary(g)
    except UndefinedQuantityError:
        summary = None

    exact: dict[str, dict] = {}
    if not bounds_only:
        if g.n > limits.max_n:
            note = f"skipped: order {g.n} exceeds solver ceiling {limits.max_n}"
            exact = {name: {"skipped": note} for name in spec_names}
        else:
            exact = {name: _solve_exact(g, name, limits) for name in spec_names}

    exact_by_target = {name: entry["value"] for name, entry in exact.items() if "value" in entry}
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
        entry["inputs"] = {
            key: _round12(value) if isinstance(value, float) else value
            for key, value in row.inputs.items()
        }
        target_exact = exact_by_target.get(row.target)
        if row.applicable and target_exact is not None:
            entry["exact"] = target_exact
            entry["gap"] = target_exact - row.value
        bound_rows.append(entry)

    report: dict = {
        "label": label,
        "graph": {
            "n": g.n,
            "m": g.m,
            "min_degree": stats.min_degree,
            "max_degree": stats.max_degree,
            "regular": stats.regular,
            "connected": is_connected(g),
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
            "sweeps": summary.sweeps,
            "residual": _round12(summary.residual),
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
    seed: int = 0,
    *,
    limits: SearchLimits | None = None,
) -> Iterator[dict]:
    """Yield one soundness/tightness row per sampled graph.

    Sample ``i`` uses family seed ``seed + i`` in place of ``spec.seed``
    (ignored by deterministic families). The check needs exact values, so a
    sample above ``limits.max_n`` raises :class:`ResourceLimitError`. Raises
    :class:`SoundnessViolation` the moment any applicable bound exceeds its
    exact target; the offending graph travels with the exception in
    edge-list form, and its message names the sample's family spec with its
    seed, which ``alliance analyze <spec> --all`` replays.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    limits = limits or SearchLimits()
    for index in range(count):
        sample = replace(spec, seed=seed + index)
        g = build(sample)
        if g.n > limits.max_n:
            raise ResourceLimitError(
                f"survey needs exact values but sample order {g.n} exceeds the solver ceiling {limits.max_n}"
            )
        report = analyze(g, label=f"{spec.family}[{index}]", limits=limits, deterministic=True)
        violations = [
            row
            for row in report["bounds"]
            if row["applicable"] and "gap" in row and row["gap"] < 0
        ]
        row_out = {
            "index": index,
            "seed": sample.seed,
            "n": g.n,
            "m": g.m,
            "bounds": [
                {key: row[key] for key in ("theorem", "target", "value", "exact", "gap")}
                for row in report["bounds"]
                if row["applicable"] and "gap" in row
            ],
            "violations": len(violations),
        }
        if violations:
            raise SoundnessViolation(
                f"bound exceeded exact value on sample {index} ({sample}): {violations[0]}",
                edgelist=write_edgelist(g),
                detail={"sample": index, "seed": sample.seed, "violations": violations},
            )
        yield row_out


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
                    "violations": 0,
                    "tight": 0,
                    "mean_gap": 0.0,
                    "max_gap": 0,
                },
            )
            agg["applicable"] += 1
            if entry["gap"] < 0:
                agg["violations"] += 1
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
