import pytest

from alliances import generators, report
from alliances.alliance_solver import ResourceLimitError
from alliances.generators import parse_family


def _fail(*args, **kwargs):
    raise AssertionError("ran after the request should have been refused")


def test_order_above_ceiling_is_refused_before_girth_and_spectra(monkeypatch):
    monkeypatch.setattr(report, "spectral_summary", _fail)
    monkeypatch.setattr(report, "girth", _fail)
    with pytest.raises(ResourceLimitError, match="order 25 exceeds the solver ceiling 24"):
        report.analyze(generators.path(25), specs=["domination"])


@pytest.mark.parametrize("bounds_only", [False, True])
def test_unknown_theorem_is_refused_before_any_work(monkeypatch, bounds_only):
    for name in ("min_alliance_number", "domination_number", "spectral_summary", "girth"):
        monkeypatch.setattr(report, name, _fail)
    with pytest.raises(ValueError, match="unknown theorem id"):
        report.analyze(generators.petersen(), theorems=["bogus"], bounds_only=bounds_only)


def test_survey_starts_at_the_spec_seed():
    spec = parse_family("gnp:8:0.5:seed=7")
    assert [row["seed"] for row in report.survey_rows(spec, 3)] == [7, 8, 9]
    assert [row["seed"] for row in report.survey_rows(spec, 2, 0)] == [0, 1]  # an explicit seed wins
