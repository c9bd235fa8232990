"""Golden check: the full analyze report on the named corpus is pinned.

Refactors must leave every exact value, witness, spectral value and bound
row byte-identical. The report holds results only, so the raw
``--deterministic`` bytes are hashed: a faster search or eigensolver that
keeps every result leaves the digest where it is. A change that moves the
digest on purpose must say why and record the new one.
"""

import hashlib

from alliances.report import analyze, report_to_json

from corpus import named_graphs

GOLDEN_DIGEST = "7100893e6fd98f5f61e85598bc73a760eacb381eb2b6af30d6a75856ca47eb27"


def test_named_corpus_reports_are_unchanged():
    digest = hashlib.sha256()
    for name, g in named_graphs().items():
        digest.update(report_to_json(analyze(g, label=name, deterministic=True)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
