"""Whole CLI runs at benchmark scale write the same bytes as when the
golden digests were made.

``bundle_digests`` runs every benchmark workload on two seeds under each
``trace_scope``, plus two ``--scenario`` runs, and digests each run's exit
code, stdout, stderr and output files. A change that means to alter an
output regenerates ``tests/golden/bundle_digests.json`` with
``python3 tests/bundle_digests.py`` and names each digest that changed.
"""

import json

import bundle_digests


def test_every_run_matches_its_golden_digest():
    want = json.loads(bundle_digests.GOLDEN.read_text("utf-8"))
    got = bundle_digests.compute()
    assert len(got) == 2 * (1 + 3 * 3)
    assert bundle_digests.differing(got, want) == []


def test_differing_names_changed_missing_and_extra_digests():
    got = {"a": "1", "b": "2", "c": "3"}
    want = {"a": "1", "b": "x", "d": "4"}
    assert bundle_digests.differing(got, want) == ["b", "c", "d"]
