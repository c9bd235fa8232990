"""README's name lists match the tables the program reads them from."""

import re
from pathlib import Path

from alliances import bounds, generators, report

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _between(start: str, end: str) -> str:
    head = README.index(start) + len(start)
    return README[head:README.index(end, head)]


def test_spec_tokens_match_exact_specs():
    text = _between("Alliance spec tokens for `--specs`, in the order `--all` reports them:", "Without")
    assert re.findall(r"`([^`]+)`", text) == list(report.EXACT_SPECS)


def test_theorem_ids_match_the_theorem_table():
    text = _between("Theorem ids for `--theorems`:", "\n\n")
    assert tuple(re.findall(r"`([^`]+)`", text)) == bounds.THEOREM_IDS


def test_grammar_block_names_every_family():
    block = _between("Graph sources are a file path, `-` for stdin, or a family spec string:\n\n```\n", "```")
    grammar, *families = block.splitlines()
    assert grammar == "name[:p1[:p2]][:seed=S]"
    names = [item.split(":")[0] for line in families for item in line.split()]
    assert names == list(generators.FAMILIES)
