"""The byte pins of ``hclat`` reports, kept in ``golden.json``.

Each entry holds an ``argv`` for ``hclat``, the sha256 of what it prints and,
optionally, a report key to ``pop`` first (the wall time, which no two runs
share), after which the report is printed again as ``json.dumps(report, indent=2)``.
``test_golden.py`` runs every entry through ``hclat.cli.main`` in process, and

    python tests/golden.py

runs them through the installed ``hclat`` console script, exiting 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

PINS = json.loads(Path(__file__).with_name("golden.json").read_text())["pins"]


def digest(entry: dict, out: bytes) -> str:
    """The sha256 of ``out``, the bytes ``entry``'s command printed, after its ``pop``."""
    if "pop" in entry:
        report = json.loads(out)
        report.pop(entry["pop"])
        out = (json.dumps(report, indent=2) + "\n").encode()
    return hashlib.sha256(out).hexdigest()


def main() -> int:
    failed = 0
    for entry in PINS:
        out = subprocess.run(["hclat", *entry["argv"]], stdout=subprocess.PIPE, check=True).stdout
        got = digest(entry, out)
        ok = got == entry["sha256"]
        failed += not ok
        print("ok" if ok else "MISMATCH", got, "hclat", *entry["argv"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
