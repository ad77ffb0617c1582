"""Golden CLI outputs: reference invocations whose stdout must not change.

Each entry names the workload that owns it; a byte mismatch (or a
changed exit code) is a failed op of that workload.  The expected bytes
live in ``perfbench/golden/<name>.out`` and the exit codes in
``perfbench/golden/manifest.json``.

Recapture (only when an output change is intended)::

    python3 perfbench/golden.py --capture
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"

# (name, owning workload, argv after the program name)
INVOCATIONS = (
    ("evaluate_gys_json", "design-queries", ["evaluate"]),
    ("evaluate_ideal_csv", "design-queries",
     ["evaluate", "--preset", "ideal", "--length-km", "100", "--format", "csv"]),
    ("optimize_gys_json", "design-queries", ["optimize"]),
    ("optimize_ideal_csv", "design-queries",
     ["optimize", "--preset", "ideal", "--mu-s", "0.2,0.4,0.6,0.8", "--format", "csv"]),
    ("budget_gys_json", "design-queries", ["budget"]),
    ("budget_ideal_csv", "design-queries",
     ["budget", "--preset", "ideal", "--length-km", "50", "--format", "csv"]),
    ("sweep_distance_gys_csv", "bulk-tables", ["sweep", "distance"]),
    ("sweep_disturbance_json", "bulk-tables",
     ["sweep", "disturbance", "--mu-s", "0.1,0.5,0.9", "--format", "json"]),
    ("sweep_distance_ideal_json", "bulk-tables",
     ["sweep", "distance", "--preset", "ideal", "--mu-s", "0.1,0.5", "--format", "json"]),
    ("mc_validate_json", "mc-validation", ["mc-validate"]),
    ("mc_validate_pns_csv", "mc-validation",
     ["mc-validate", "--eve-mode", "pns", "--suppress-fraction", "0.5", "--format", "csv"]),
)


def run_in_process(cli_main, argv: list[str]) -> tuple[int, bytes]:
    """Run ``brpqkd.cli.main`` in this process and return (exit code, stdout bytes)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue().encode("utf-8")


def load(workload: str, golden_dir: Path = GOLDEN_DIR) -> list[tuple[str, list[str], int, bytes]]:
    """The owned invocations with their expected exit code and stdout bytes."""
    manifest = json.loads((golden_dir / "manifest.json").read_text(encoding="utf-8"))
    return [
        (name, argv, manifest[name]["exit"], (golden_dir / f"{name}.out").read_bytes())
        for name, owner, argv in INVOCATIONS
        if owner == workload
    ]


def check(cli_main, expected: tuple[str, list[str], int, bytes]) -> str | None:
    """None when the invocation reproduces its golden bytes, else what differed."""
    name, argv, exit_code, golden = expected
    code, out = run_in_process(cli_main, argv)
    if code != exit_code:
        return f"{name}: exit {code}, golden {exit_code}"
    if out != golden:
        return f"{name}: stdout differs from golden ({len(out)} vs {len(golden)} bytes)"
    return None


def capture(root: Path) -> None:
    """Write golden files from a real ``python -m brpqkd`` process per invocation."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, owner, argv in INVOCATIONS:
        proc = subprocess.run([sys.executable, "-m", "brpqkd", *argv], cwd=root, env=env,
                              capture_output=True, check=False)
        if proc.returncode not in (0, 3):
            raise SystemExit(f"{name}: exit {proc.returncode}: {proc.stderr.decode()}")
        (GOLDEN_DIR / f"{name}.out").write_bytes(proc.stdout)
        manifest[name] = {"workload": owner, "argv": argv, "exit": proc.returncode}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: python3 perfbench/golden.py --capture")
    capture(Path(__file__).resolve().parent.parent)
