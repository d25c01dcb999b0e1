#!/usr/bin/env python3
"""Configuration documentation gate.

Every public field of ``PierConfig`` (crates/core/src/engine/config.rs) must
have a matching ``### `field_name` `` heading in ``docs/OPERATIONS.md`` —
operators read that file, not the source.  The field list is parsed from the struct
definition itself, so a newly added knob fails CI until it is documented;
a documented-but-removed knob fails too, so the docs cannot go stale.

Usage:
    python3 scripts/check_config_docs.py [--repo .]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

STRUCT = "PierConfig"
SOURCE = Path("crates/core/src/engine/config.rs")
DOCS = Path("docs/OPERATIONS.md")


def struct_fields(source: str) -> list[str]:
    m = re.search(rf"pub struct {STRUCT} \{{\n(.*?)\n\}}", source, re.DOTALL)
    if not m:
        sys.exit(f"check_config_docs: 'pub struct {STRUCT}' not found in {SOURCE}")
    fields = re.findall(r"^    pub (\w+):", m.group(1), re.MULTILINE)
    if not fields:
        sys.exit(f"check_config_docs: no public fields parsed from {STRUCT}")
    return fields


def documented_fields(docs: str) -> list[str]:
    return re.findall(r"^### `(\w+)`", docs, re.MULTILINE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".", help="repository root")
    args = ap.parse_args()
    repo = Path(args.repo)

    source_path = repo / SOURCE
    docs_path = repo / DOCS
    if not source_path.exists():
        sys.exit(f"check_config_docs: missing {source_path}")
    if not docs_path.exists():
        sys.exit(f"check_config_docs: missing {docs_path} — every {STRUCT} knob "
                 f"must be documented there")

    fields = struct_fields(source_path.read_text())
    documented = documented_fields(docs_path.read_text())

    missing = [f for f in fields if f not in documented]
    stale = [d for d in documented if d not in fields]

    print(f"check_config_docs: {len(fields)} {STRUCT} fields, "
          f"{len(documented)} documented knobs")
    if missing:
        print(f"\ncheck_config_docs: FAILED — fields missing from {DOCS}:")
        for f in missing:
            print(f"  - {f}  (add a '### `{f}`' section)")
    if stale:
        print(f"\ncheck_config_docs: FAILED — documented knobs no longer in {STRUCT}:")
        for d in stale:
            print(f"  - {d}  (remove or rename its '### `{d}`' section)")
    if missing or stale:
        return 1
    print("check_config_docs: every configuration knob is documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
