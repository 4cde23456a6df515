"""The benchmark operations write the same bytes as when ``output_digests.json`` was made.

``cli.py`` promises the same bytes for the same config and seed.  A rerun in
one process cannot tell whether a change kept them; this test compares the
SHA-256 of every output file with the committed digests, so a reordered sum
or a changed draw order fails tier-1.  A change that means to alter output
bytes rewrites the digests with ``tests/update_output_digests.py``.
"""

import json

from update_output_digests import DIGESTS, digest_changes, environment, run_operations


def test_outputs_match_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = json.loads(DIGESTS.read_text())
    changed = digest_changes(record["digests"], run_operations())
    assert not changed, (
        f"output bytes changed in {changed}; digests made on {record['environment']}, "
        f"this run on {environment()}"
    )


def test_digest_changes_name_each_changed_missing_and_new_file():
    want = {"a run": {"w/x": "1", "w/y": "2"}, "b run": {"w/z": "3"}}
    got = {"a run": {"w/x": "1", "w/y": "9", "w/n": "4"}, "c run": {"w/c": "5"}}
    assert digest_changes(want, got) == [
        "new a run: w/n",
        "changed a run: w/y",
        "missing b run: w/z",
        "new c run: w/c",
    ]
    assert digest_changes(want, want) == []
