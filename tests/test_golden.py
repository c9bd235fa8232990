"""Golden check: the full analyze report on the named corpus is pinned.

Refactors must leave every exact value, witness, spectral value and bound
row byte-identical. ``nodes_explored``, ``sweeps`` and ``residual`` are left
out, as in the benchmark digest: a faster search or eigensolver changes them
without changing any result. A change that moves the digest on purpose must
say why and record the new one.
"""

import hashlib

from alliances.report import analyze, report_to_json

from corpus import named_graphs

EVERY_EXACT = (
    "defensive",
    "strong_defensive",
    "global_defensive",
    "global_strong_defensive",
    "global_offensive",
    "global_strong_offensive",
    "global_dual",
    "global_strong_dual",
    "domination",
)
VOLATILE = {"nodes_explored", "sweeps", "residual"}
GOLDEN_DIGEST = "7100893e6fd98f5f61e85598bc73a760eacb381eb2b6af30d6a75856ca47eb27"


def _stable(value):
    if isinstance(value, dict):
        return {key: _stable(item) for key, item in value.items() if key not in VOLATILE}
    if isinstance(value, list):
        return [_stable(item) for item in value]
    return value


def test_named_corpus_reports_are_unchanged():
    digest = hashlib.sha256()
    for name, g in named_graphs().items():
        report = analyze(g, label=name, specs=EVERY_EXACT, deterministic=True)
        digest.update(report_to_json(_stable(report)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
