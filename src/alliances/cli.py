"""Command-line surface: ``alliance analyze | survey | generate``.

Graph sources are a file path, ``-`` for standard input, or a family spec
string with the grammar ``name[:p1[:p2]][:seed=S]``, for example
``petersen``, ``complete:6``, ``grid:2:3``, ``gnp:20:0.3:seed=7``.

``--specs`` and ``--theorems`` take comma lists; a list that is given but
empty (``""`` or ``","``) selects nothing, and ``--specs`` and ``--all``
exclude each other.

Exit codes: 0 success, 1 standard output closed by its reader, 2 parse/usage
error, 3 resource limit (an order above the solver ceiling ``--max-n``, which
``analyze`` without ``--bounds-only`` and ``survey`` refuse before any other
work), 4 soundness violation (a bound above its exact value, found by
``analyze`` or by any graph ``survey`` samples). No flag sets a node budget:
``SearchLimits.max_nodes`` is set only from the library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Iterator

from .alliance_solver import ResourceLimitError, SearchLimits, VARIANTS
from .generators import build, parse_family
from .graph_core import Graph
from .io_formats import FORMATS, ParseError, parse_graph, write_edgelist, write_graph6
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


def _load_source(source: str, input_format: str) -> tuple[Graph, tuple[str, ...] | None, str]:
    """Resolve a source argument to (graph, labels, display label)."""
    if source == "-":
        graph, labels = parse_graph(sys.stdin.read(), input_format, source)
        return graph, labels, "stdin"
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                data = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source!r}: {exc.strerror or exc}") from None
        graph, labels = parse_graph(data, input_format, source)
        return graph, labels, os.path.basename(source)
    try:
        spec = parse_family(source)
    except ValueError as exc:
        raise ParseError(f"source {source!r} is neither a readable file nor a family spec ({exc})") from None
    return build(spec), None, source


def _comma_list(value: str | None) -> tuple[str, ...] | None:
    """Split a comma list option: None when the option is absent, and a
    given list without tokens (``""`` or ``","``) selects nothing."""
    if value is None:
        return None
    return tuple(token for token in (part.strip() for part in value.split(",")) if token)


def _cmd_analyze(args: argparse.Namespace) -> int:
    graph, labels, label = _load_source(args.source, args.input_format)
    specs = _comma_list(args.specs)
    if args.all:
        specs = tuple(VARIANTS)
    elif specs is not None:
        specs = tuple(EXACT_SPECS.get(token, token) for token in specs)  # analyze names an unknown one
    report = analyze(
        graph,
        label=label,
        labels=labels,
        specs=specs,
        theorems=_comma_list(args.theorems),
        bounds_only=args.bounds_only,
        limits=SearchLimits(max_n=args.max_n),
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
    rows = survey_rows(spec, args.count, limits=SearchLimits(max_n=args.max_n))
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
    which = analyze_p.add_mutually_exclusive_group()
    which.add_argument("--specs", help="comma list of alliance spec tokens (e.g. def,strongdef,dom)")
    which.add_argument("--all", action="store_true", help="compute every exact value")
    analyze_p.add_argument("--theorems", help="comma list of theorem ids to evaluate")
    analyze_p.add_argument("--bounds-only", action="store_true", help="skip exact solving")
    analyze_p.add_argument("--format", choices=("json", "csv"), default="json")
    analyze_p.add_argument("--input-format", choices=FORMATS, default="auto")
    analyze_p.add_argument("--max-n", type=int, default=SearchLimits().max_n, help="solver ceiling")
    analyze_p.add_argument("--deterministic", action="store_true", help="suppress the timestamp field")
    analyze_p.set_defaults(func=_cmd_analyze)

    survey_p = sub.add_parser("survey", help="sample a family and certify bound soundness")
    survey_p.add_argument("family", help="family spec string, e.g. gnp:8:0.5:seed=7 (sample i uses seed 7+i)")
    survey_p.add_argument("--count", type=int, required=True)
    survey_p.add_argument("--format", choices=("json", "csv"), default="json")
    survey_p.add_argument("--max-n", type=int, default=SearchLimits().max_n, help="solver ceiling")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``alliance survey ... | head -1``).
        # Point stdout at devnull so the interpreter's last flush of what is
        # still buffered does not fail again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"alliance: parse error: {exc}", file=sys.stderr)
        return 2
    except SoundnessViolation as exc:
        print(f"alliance: SOUNDNESS VIOLATION: {exc}", file=sys.stderr)
        print(f"offending graph (graph6): {exc.graph6}", file=sys.stderr)
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
