"""Command-line surface: ``alliance analyze | survey | generate``.

Graph sources are a file path, ``-`` for standard input, or a family spec
string with the grammar ``name[:p1[:p2]][:seed=S]``, for example
``petersen``, ``complete:6``, ``grid:2:3``, ``gnp:20:0.3:seed=7``.

Exit codes: 0 success, 2 parse/usage error, 3 resource limit,
4 soundness violation detected by ``survey``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Iterator

from .alliance_solver import ResourceLimitError, SearchLimits
from .generators import FAMILIES, GraphFamilySpec, build
from .graph_core import Graph
from .io_formats import ParseError, parse_graph, write_edgelist, write_graph6
from .report import (
    EXACT_SPECS,
    SoundnessViolation,
    analyze,
    analyze_to_csv,
    report_to_json,
    summarize_survey,
    summary_to_csv,
    survey_rows,
)
from .spectral import DEFAULT_TOL


def parse_family(text: str) -> GraphFamilySpec:
    """Parse a family spec string ``name[:p1[:p2]][:seed=S]``."""
    parts = text.split(":")
    name = parts[0]
    if name not in FAMILIES:
        raise ValueError(f"unknown graph family {name!r}; known: {', '.join(FAMILIES)}")
    params: list[int | float] = []
    seed: int | None = None
    for part in parts[1:]:
        if part.startswith("seed="):
            seed = int(part[5:])
            continue
        try:
            params.append(int(part))
        except ValueError:
            try:
                params.append(float(part))
            except ValueError:
                raise ValueError(f"bad family parameter {part!r} in {text!r}") from None
    return GraphFamilySpec(name, tuple(params), seed=seed)


def _sniff_format(source: str, data: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    if data.lstrip().startswith(">>graph6<<"):
        return "graph6"
    if source.endswith((".g6", ".graph6")):
        return "graph6"
    return "edgelist"


def _load_source(source: str, input_format: str) -> tuple[Graph, tuple[str, ...] | None, str]:
    """Resolve a source argument to (graph, labels, display label)."""
    if source == "-":
        data = sys.stdin.read()
        fmt = _sniff_format(source, data, input_format)
        graph, labels = parse_graph(data, fmt)
        return graph, labels, "stdin"
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            data = handle.read()
        fmt = _sniff_format(source, data, input_format)
        graph, labels = parse_graph(data, fmt)
        return graph, labels, os.path.basename(source)
    try:
        spec = parse_family(source)
    except ValueError as exc:
        raise ParseError(f"source {source!r} is neither a readable file nor a family spec ({exc})") from None
    return build(spec), None, source


def _parse_specs(value: str | None, all_flag: bool) -> tuple[str, ...] | None:
    if all_flag:
        return tuple(EXACT_SPECS.values())
    if value is None:
        return None  # analyze() falls back to its default set
    names = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in EXACT_SPECS:
            raise ValueError(f"unknown spec token {token!r}; known: {', '.join(EXACT_SPECS)}")
        names.append(EXACT_SPECS[token])
    return tuple(names)


def _limits_from_args(args: argparse.Namespace) -> SearchLimits:
    max_n = args.max_n
    if max_n is None:
        env = os.environ.get("ALLIANCE_MAX_N")
        max_n = int(env) if env else SearchLimits().max_n
    return SearchLimits(max_n=max_n)


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph, labels, label = _load_source(args.source, args.input_format)
    specs = _parse_specs(args.specs, args.all)
    theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip()) if args.theorems else None
    report = analyze(
        graph,
        label=label,
        labels=labels,
        specs=specs,
        theorems=theorems,
        bounds_only=args.bounds_only,
        limits=_limits_from_args(args),
        tol=args.tol,
        deterministic=args.deterministic,
    )
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(analyze_to_csv(report))
    return 0


def _echoed(rows: Iterable[dict]) -> Iterator[dict]:
    """Pass rows through, writing each as one JSON line as it arrives."""
    for row in rows:
        sys.stdout.write(json.dumps(row) + "\n")
        yield row


def _cmd_survey(args: argparse.Namespace) -> int:
    spec = parse_family(args.family)
    rows = survey_rows(spec, args.count, args.seed, limits=_limits_from_args(args), tol=args.tol)
    stream = args.format == "json"
    summary = summarize_survey(_echoed(rows) if stream else rows)
    if stream:
        sys.stdout.write(json.dumps({"summary": summary}) + "\n")
    else:
        sys.stdout.write(summary_to_csv(summary))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = build(parse_family(args.family))
    if args.format == "edgelist":
        sys.stdout.write(write_edgelist(graph))
    else:
        sys.stdout.write(write_graph6(graph) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alliance",
        description="Exact alliance numbers, spectral quantities, and certified lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="analyze one graph")
    analyze_p.add_argument("source", help="file path, '-' for stdin, or a family spec string")
    analyze_p.add_argument("--specs", help="comma list of alliance spec tokens (e.g. def,strongdef,dom)")
    analyze_p.add_argument("--all", action="store_true", help="compute every exact value")
    analyze_p.add_argument("--theorems", help="comma list of theorem ids to evaluate")
    analyze_p.add_argument("--bounds-only", action="store_true", help="skip exact solving")
    analyze_p.add_argument("--format", choices=("json", "csv"), default="json")
    analyze_p.add_argument("--input-format", choices=("auto", "edgelist", "graph6"), default="auto")
    analyze_p.add_argument("--max-n", type=int, default=None, help="solver ceiling (env ALLIANCE_MAX_N)")
    analyze_p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    analyze_p.add_argument("--deterministic", action="store_true", help="suppress the timestamp field")
    analyze_p.set_defaults(func=_cmd_analyze)

    survey_p = sub.add_parser("survey", help="sample a family and certify bound soundness")
    survey_p.add_argument("family", help="family spec string, e.g. gnp:8:0.5")
    survey_p.add_argument("--count", type=int, required=True)
    survey_p.add_argument("--seed", type=int, default=0)
    survey_p.add_argument("--format", choices=("json", "csv"), default="json")
    survey_p.add_argument("--max-n", type=int, default=None)
    survey_p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    survey_p.set_defaults(func=_cmd_survey)

    generate_p = sub.add_parser("generate", help="emit a named/parametric graph")
    generate_p.add_argument("family")
    generate_p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    generate_p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"alliance: parse error: {exc}", file=sys.stderr)
        return 2
    except SoundnessViolation as exc:
        print(f"alliance: SOUNDNESS VIOLATION: {exc}", file=sys.stderr)
        print("offending graph (edgelist):", file=sys.stderr)
        sys.stderr.write(exc.edgelist)
        return 4
    except ResourceLimitError as exc:
        print(f"alliance: resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"alliance: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
