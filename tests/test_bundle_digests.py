"""Whole CLI runs at benchmark scale write the same bytes as when the
golden digests were made.

``bundle_digests`` runs every benchmark workload on two seeds under each
``trace_scope``, plus two ``--scenario`` runs, and digests each run's exit
code, stdout, stderr and output files. A change that means to alter an
output regenerates ``tests/golden/bundle_digests.json`` with
``python3 tests/bundle_digests.py`` and names each digest that changed.
One workload's digests are also recomputed under a second hash seed.
"""

import json
import os
import subprocess
import sys

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


def test_digests_hold_under_a_second_hash_seed():
    """The ``dot-report`` runs (seed 1) give their golden digests in a fresh
    interpreter with ``PYTHONHASHSEED=1``, so no output follows the order of
    a set or dict of strings; this process's own seed is the first."""
    code = ("import json, sys\n"
            f"sys.path[:0] = [{str(bundle_digests.ROOT / 'tests')!r}, "
            f"{str(bundle_digests.ROOT / 'src')!r}]\n"
            "import bundle_digests\n"
            "print(json.dumps(bundle_digests.compute(('dot-report',), (1,))))\n")
    env = {**os.environ, "PYTHONHASHSEED": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(done.stdout)
    want = json.loads(bundle_digests.GOLDEN.read_text("utf-8"))
    assert sorted(got) == [f"dot-report/seed1/{scope}" for scope in sorted(bundle_digests.SCOPES)]
    assert bundle_digests.differing(got, {name: want[name] for name in got}) == []
