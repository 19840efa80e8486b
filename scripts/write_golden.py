#!/usr/bin/env python3
"""Regenerate the golden stdout files under tests/golden/ from the CLI.

Run from a checkout with spinact importable, for example
`PYTHONPATH=src python3 scripts/write_golden.py`.
"""

import io
from pathlib import Path

from spinact import cli

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "tests" / "golden"
SCENARIOS = REPO / "scenarios"


def _cases():
    for name in ("z2_l3_k1", "klein_l3_l3_k1"):
        for command in ("check", "invariants"):
            argv = [command, "--input", str(SCENARIOS / f"{name}.json")]
            yield f"{command}_{name}.txt", argv
            yield f"{command}_{name}.json", argv + ["--format", "structured"]
    yield "enumerate_z2_l3-9_k0-3.txt", [
        "enumerate", "--template", "z2", "--sweep", "l=3..9,k=0..3"
    ]
    yield "enumerate_klein_l1-3-4_l2-3-4_k0-1.json", [
        "enumerate", "--template", "klein", "--sweep", "l1=3..4,l2=3..4,k=0..1",
        "--format", "structured",
    ]


# golden file name -> the argv whose stdout it holds
GOLDEN = dict(_cases())


def main():
    for name, argv in GOLDEN.items():
        out = io.StringIO()
        status = cli.main(argv, out=out)
        if status != 0:
            raise SystemExit(f"spinact {' '.join(argv)} exited {status}")
        path = OUT / name
        path.write_text(out.getvalue(), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
