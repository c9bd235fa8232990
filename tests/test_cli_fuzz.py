"""End-to-end fuzz of the ``alliance`` command: generated argv for
``analyze``, ``survey`` and ``generate``, and generated standard input for
``analyze -``. Whatever it is given, ``cli.main`` ends in one of the exit
codes 0, 2, 3 or 4 and never raises; argparse's ``SystemExit(2)`` counts
as exit 2. Graphs stay at order 9 or below so each run is quick."""

import contextlib
import io
from unittest import mock

import hypothesis.strategies as st
from hypothesis import event, given, settings

from alliances.alliance_solver import VARIANTS
from alliances.bounds import THEOREM_IDS
from alliances.cli import main
from alliances.io_formats import FORMATS, write_edgelist, write_graph6
from alliances.report import EXACT_SPECS

from strategies import graphs

def _mostly(valid, invalid):
    """Draw from ``valid`` four times in five and from ``invalid`` otherwise,
    so most runs get past argument checks to the work behind them."""
    return st.sampled_from((valid,) * 4 + (invalid,)).flatmap(lambda chosen: chosen)


# Per family, parameters that give an order of at most 9, most of them in
# range; the out-of-range ones are zero, negative, or odd where even is needed.
_PARAMS = {
    "complete": st.tuples(st.integers(-1, 9)),
    "complete_bipartite": st.tuples(st.integers(0, 5), st.integers(1, 4)),
    "cycle": st.tuples(st.integers(2, 9)),
    "path": st.tuples(st.integers(-1, 9)),
    "grid": st.tuples(st.integers(0, 3), st.integers(1, 3)),
    "hypercube": st.tuples(st.integers(-1, 3)),
    "petersen": st.just(()),
    "icosahedron": st.just(()),
    "complete_minus_matching": st.tuples(st.integers(1, 9)),
    "bowtie": st.just(()),
    "gnp": st.tuples(st.integers(0, 9), st.sampled_from([-0.5, 0.0, 0.3, 0.6, 1.0, 1.5])),
    "random_regular": st.tuples(st.integers(1, 9), st.integers(0, 4)),
}
# Tokens that no family takes as a parameter, or not in that place.
_JUNK = st.sampled_from(["2.5", "-1", "nan", "inf", "x", "", "seed=3", "seed=-1", "seed=x", "seed="])


@st.composite
def _family_specs(draw):
    family = draw(_mostly(st.sampled_from(sorted(_PARAMS)), st.just("moebius")))
    params = [str(p) for p in draw(_PARAMS.get(family, st.just((3,))))]
    mangle = draw(_mostly(st.just("none"), st.sampled_from(["extra", "drop", "replace"])))
    if mangle == "extra":
        params.append(draw(_JUNK | st.integers(-1, 3).map(str)))
    elif mangle == "drop" and params:
        params.pop()
    elif mangle == "replace" and params:
        params[draw(st.integers(0, len(params) - 1))] = draw(_JUNK)
    if draw(st.booleans()):
        params.append(f"seed={draw(st.integers(-2, 5))}")
    return ":".join([family, *params])


def _comma_list(names, unknown):
    """A comma list of ``names``, now and then with an ``unknown`` token in it."""
    listed = st.lists(st.sampled_from(names), max_size=4)
    return _mostly(listed, listed.map(lambda tokens: [*tokens, unknown])).map(",".join)


_SPECS = _comma_list([*EXACT_SPECS, *VARIANTS, " ", ""], "bogus")
_THEOREMS = _comma_list([*THEOREM_IDS, ""], "globdef-mu")
_MAX_N = st.integers(-1, 30).map(str)


@st.composite
def _analyze_options(draw):
    options = []
    which = draw(_mostly(st.sampled_from(["neither", "specs", "all"]), st.just("both")))  # both is a usage error
    if which in ("specs", "both"):
        options += ["--specs", draw(_SPECS)]
    if which in ("all", "both"):
        options.append("--all")
    if draw(st.booleans()):
        options += ["--theorems", draw(_THEOREMS)]
    if draw(st.booleans()):
        options.append("--bounds-only")
    if draw(st.booleans()):
        options += ["--format", draw(_mostly(st.sampled_from(["json", "csv"]), st.just("xml")))]
    if draw(st.booleans()):
        options += ["--input-format", draw(_mostly(st.sampled_from(FORMATS), st.just("dot")))]
    if draw(st.booleans()):
        options += ["--max-n", draw(_MAX_N)]
    options.append("--deterministic")
    return options


@st.composite
def _survey_argv(draw):
    argv = ["survey", draw(_family_specs())]
    if draw(_mostly(st.just(True), st.just(False))):  # --count is required
        argv += ["--count", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    if draw(st.booleans()):
        argv += ["--max-n", draw(_MAX_N)]
    return argv


@st.composite
def _generate_argv(draw):
    argv = ["generate", draw(_family_specs())]
    if draw(st.booleans()):
        argv += ["--format", draw(_mostly(st.sampled_from(["edgelist", "graph6"]), st.just("dot")))]
    return argv


_ANALYZE_ARGV = st.builds(
    lambda source, options: ["analyze", source, *options],
    _mostly(_family_specs(), st.just(".")),  # "." is a directory: a source that cannot be read
    _analyze_options(),
)
_ARGV = st.one_of(_ANALYZE_ARGV, _survey_argv(), _generate_argv())

# Standard input for ``analyze -``: graph6 lines (whole, cut short or
# several), edge lists, and text that is neither.
_GRAPH = graphs(min_n=1, max_n=9)
_STDIN = st.one_of(
    _GRAPH.map(write_graph6),
    _GRAPH.map(lambda g: write_graph6(g)[:-1]),
    st.lists(_GRAPH.map(write_graph6), min_size=2, max_size=3).map("\n".join),
    _GRAPH.map(write_edgelist),
    st.text(alphabet="ab 01?~>\n\t\ufeff", max_size=20),
)


def _exit_code(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@given(_ARGV)
@settings(max_examples=300, deadline=None)
def test_argv_ends_in_an_exit_code(argv):
    code = _exit_code(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4), argv


@given(_STDIN, _analyze_options())
@settings(max_examples=150, deadline=None)
def test_stdin_ends_in_an_exit_code(stdin, options):
    code = _exit_code(["analyze", "-", *options], stdin)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (stdin, options)
