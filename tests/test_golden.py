"""Reference CLI invocations must reproduce their recorded exit codes and stdout bytes.

The recorded outputs live with the benchmark in ``perfbench/golden/``
(``manifest.json`` plus one ``<name>.out`` per invocation) and are only
read here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from brpqkd.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_matches_golden_bytes(name):
    entry = MANIFEST[name]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(entry["argv"]))
    assert code == entry["exit"]
    assert buffer.getvalue().encode("utf-8") == (GOLDEN_DIR / f"{name}.out").read_bytes()
