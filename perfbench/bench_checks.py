"""Output checks: each returns the list of problems found, empty when the output is correct.

The spectral oracle is ``numpy.linalg.eigvalsh`` on matrices built here from
the adjacency lists, independent of the program's Jacobi solver. Witnesses
are checked with the program's definition checkers (``is_alliance``,
``is_dominating_set``), which share no code with the search.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from alliances.alliance_solver import is_alliance, is_dominating_set, spec_from_name
from alliances.graph_core import Graph, VertexSet

SPECTRAL_TOL = 1e-8


def spectral_oracle(g: Graph) -> dict[str, float]:
    a = np.zeros((g.n, g.n))
    for v, nbrs in enumerate(g.adjacency):
        a[v, list(nbrs)] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    adj_eigs = np.linalg.eigvalsh(a)
    lap_eigs = np.linalg.eigvalsh(lap)
    return {
        "spectral_radius": float(adj_eigs[-1]),
        "algebraic_connectivity": float(lap_eigs[1]),
        "laplacian_radius": float(lap_eigs[-1]),
    }


def _check_bound_entry(entry: dict) -> list[str]:
    if entry["value"] > entry["exact"]:
        return [f"{entry['theorem']} bound {entry['value']} exceeds exact {entry['target']} = {entry['exact']}"]
    if entry["gap"] != entry["exact"] - entry["value"]:
        return [f"{entry['theorem']} gap {entry['gap']} != exact - bound"]
    return []


def check_report(g: Graph, report: dict, text: str) -> list[str]:
    """Check one ``analyze`` report and its JSON serialization against the input graph."""
    problems = []
    if json.loads(text) != report:
        problems.append("serialized JSON does not parse back to the report")
    if (report["graph"]["n"], report["graph"]["m"]) != (g.n, g.m):
        problems.append(f"report order/size {report['graph']['n']}/{report['graph']['m']} != {g.n}/{g.m}")
    spectral = report["spectral"]
    if spectral is None:
        problems.append("spectral summary missing")
    else:
        for key, expected in spectral_oracle(g).items():
            if abs(spectral[key] - expected) > SPECTRAL_TOL:
                problems.append(f"{key} {spectral[key]!r} differs from eigvalsh {expected!r}")
    for name, entry in report["exact"].items():
        if "value" not in entry:
            problems.append(f"{name}: no exact value ({entry})")
            continue
        witness = VertexSet(entry["witness"])
        if len(witness) != entry["value"]:
            problems.append(f"{name}: witness size {len(witness)} != value {entry['value']}")
        valid = is_dominating_set(g, witness) if name == "domination" else is_alliance(g, witness, spec_from_name(name))
        if not valid:
            problems.append(f"{name}: witness {entry['witness']} does not satisfy the definition")
    for entry in report["bounds"]:
        if entry["applicable"] and "exact" in entry:
            problems.extend(_check_bound_entry(entry))
    return problems


def check_row(g: Graph, row: dict) -> list[str]:
    """Check one survey row against its graph: order, size and every bound <= exact."""
    problems = []
    if (row["n"], row["m"]) != (g.n, g.m):
        problems.append(f"row order/size {row['n']}/{row['m']} != {g.n}/{g.m}")
    if row["violations"]:
        problems.append(f"{row['violations']} soundness violation(s)")
    for entry in row["bounds"]:
        problems.extend(_check_bound_entry(entry))
    return problems


def check_row_against_report(row: dict, report: dict) -> list[str]:
    """The exact values a survey row compares against must be those ``analyze`` reports."""
    exact = {name: entry.get("value") for name, entry in report["exact"].items()}
    exact["girth"] = report["graph"]["girth"]
    return [
        f"row exact {entry['target']} = {entry['exact']} but analyze gives {exact.get(entry['target'])}"
        for entry in row["bounds"]
        if exact.get(entry["target"]) != entry["exact"]
    ]


def check_summary(rows: list[dict], summary: list[dict]) -> list[str]:
    """``summarize_survey`` must count every applicable row entry once and no violation."""
    problems = []
    if sum(agg["applicable"] for agg in summary) != sum(len(row["bounds"]) for row in rows):
        problems.append("survey summary does not count every applicable bound once")
    if any(agg["violations"] for agg in summary):
        problems.append("survey summary reports violations")
    return problems


def result_record(report: dict) -> list:
    """The part of a report the digest covers.

    ``nodes_explored``, ``sweeps`` and ``residual`` are left out: a faster
    search or eigensolver changes them without changing any result.
    """
    return [
        report["label"],
        {name: [entry.get("value"), entry.get("witness")] for name, entry in sorted(report["exact"].items())},
        [[entry["theorem"], entry["target"], entry["value"]] for entry in report["bounds"]],
    ]


def digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
