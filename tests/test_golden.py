"""Reference CLI invocations must reproduce their recorded exit codes and stdout bytes.

The recorded outputs live with the benchmark in ``perfbench/golden/``
(``manifest.json`` plus one ``<name>.out`` per invocation) and are only
read here.
"""

import contextlib
import io
import json
import subprocess
import sys
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


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_file_matches_golden_bytes(name, tmp_path, capsys):
    entry = MANIFEST[name]
    path = tmp_path / f"{name}.out"
    code = main([*entry["argv"], "--out", str(path)])
    assert code == entry["exit"]
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == (GOLDEN_DIR / f"{name}.out").read_bytes()


def test_python_dash_m_matches_golden_bytes():
    entry = MANIFEST["evaluate_ideal_csv"]
    done = subprocess.run(
        [sys.executable, "-m", "brpqkd", *entry["argv"]], capture_output=True
    )
    expected = (GOLDEN_DIR / "evaluate_ideal_csv.out").read_bytes()
    assert (done.returncode, done.stdout, done.stderr) == (entry["exit"], expected, b"")
