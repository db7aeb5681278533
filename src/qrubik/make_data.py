"""Regenerate the JSON documents shipped under ``qrubik/data``.

Usage: ``python -m qrubik.make_data [output_dir]``.
"""

from __future__ import annotations

import json
import os
import sys

from .protocols import builtin_protocols, builtin_state_sets
from .states import save_state_set


def write_data(outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, doc in builtin_protocols().items():
        path = os.path.join(outdir, f"{name}.json")
        # keep compact: indented, these deep trees take four to five times the bytes
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        written.append(path)
    for name, sset in builtin_state_sets().items():
        path = os.path.join(outdir, f"{name}.json")
        save_state_set(sset, path)
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    outdir = args[0] if args else os.path.join(os.path.dirname(__file__), "data")
    for path in write_data(outdir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
