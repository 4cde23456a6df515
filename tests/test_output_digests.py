"""The benchmark operations write the same bytes as when ``output_digests.json`` was made.

``cli.py`` promises the same bytes for the same config and seed.  A rerun in
one process cannot tell whether a change kept them; this test compares the
SHA-256 of every output file with the committed digests, so a reordered sum
or a changed draw order fails tier-1.  A change that means to alter output
bytes rewrites the digests with ``tests/update_output_digests.py``.
"""

import json

from update_output_digests import DIGESTS, environment, run_operations


def test_outputs_match_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = json.loads(DIGESTS.read_text())
    want, got = record["digests"], run_operations()
    changed = [
        f"{op}: {path}"
        for op in sorted(want.keys() | got.keys())
        for path in sorted(want.get(op, {}).keys() | got.get(op, {}).keys())
        if want.get(op, {}).get(path) != got.get(op, {}).get(path)
    ]
    assert not changed, (
        f"output bytes changed in {changed}; digests made on {record['environment']}, "
        f"this run on {environment()}"
    )
