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

GOLDEN_DIGEST = "42b95176719ea42ac2ebe4db0047ee7ae8955d53e5a5f0c9eca10fc1ea77372e"


def test_named_corpus_reports_are_unchanged():
    digest = hashlib.sha256()
    for name, g in named_graphs().items():
        digest.update(report_to_json(analyze(g, label=name, deterministic=True)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
