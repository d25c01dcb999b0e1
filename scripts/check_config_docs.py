#!/usr/bin/env python3
"""Configuration and counter documentation gate.

Every public field of ``PierConfig`` (crates/core/src/engine/config.rs) must
have a matching ``### `field_name` `` heading in ``docs/OPERATIONS.md`` —
operators read that file, not the source — every public field of
``DhtConfig`` (crates/dht/src/config.rs) must appear as a ``* `field_name` ``
bullet in that file's ``### `dht` `` section, and every public field of
``EngineStats`` (crates/core/src/engine/config.rs) must name a row of its
``## Counters`` table (a row may name several, as ``| `a` / `b` | ... |``).
The field lists are parsed from the struct definitions themselves, so a
newly added knob or counter fails CI until it is documented; a
documented-but-removed one fails too, so the docs cannot go stale.

Usage:
    python3 scripts/check_config_docs.py [--repo .]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

PIER_SOURCE = Path("crates/core/src/engine/config.rs")
DHT_SOURCE = Path("crates/dht/src/config.rs")
DOCS = Path("docs/OPERATIONS.md")


def struct_fields(source: str, struct: str, path: Path) -> list[str]:
    m = re.search(rf"pub struct {struct} \{{\n(.*?)\n\}}", source, re.DOTALL)
    if not m:
        sys.exit(f"check_config_docs: 'pub struct {struct}' not found in {path}")
    fields = re.findall(r"^    pub (\w+):", m.group(1), re.MULTILINE)
    if not fields:
        sys.exit(f"check_config_docs: no public fields parsed from {struct}")
    return fields


def documented_knobs(docs: str) -> list[str]:
    return re.findall(r"^### `(\w+)`", docs, re.MULTILINE)


def dht_section_fields(docs: str) -> list[str]:
    m = re.search(r"^### `dht`\n(.*?)(?=^#{2,3} |\Z)", docs, re.MULTILINE | re.DOTALL)
    if not m:
        sys.exit(f"check_config_docs: no '### `dht`' section in {DOCS}")
    return re.findall(r"^\* `(\w+)`", m.group(1), re.MULTILINE)


def counter_rows(docs: str) -> list[str]:
    m = re.search(r"^## Counters\n(.*?)(?=^## |\Z)", docs, re.MULTILINE | re.DOTALL)
    if not m:
        sys.exit(f"check_config_docs: no '## Counters' section in {DOCS}")
    names = []
    for cell in re.findall(r"^\| (.+?) \| .* \|$", m.group(1), re.MULTILINE):
        parts = [re.fullmatch(r"`(\w+)`", part.strip()) for part in cell.split(" / ")]
        names += [p.group(1) for p in parts if p]
    return names


def compare(struct: str, fields: list[str], documented: list[str], fix: str) -> bool:
    """Report fields missing from the docs and documented names that are no
    longer fields; return whether both lists agree."""
    missing = [f for f in fields if f not in documented]
    stale = [d for d in documented if d not in fields]
    print(f"check_config_docs: {len(fields)} {struct} fields, {len(documented)} documented")
    if missing:
        print(f"\ncheck_config_docs: FAILED — {struct} fields missing from {DOCS}:")
        for f in missing:
            print(f"  - {f}  (add {fix.format(f)})")
    if stale:
        print(f"\ncheck_config_docs: FAILED — documented names no longer in {struct}:")
        for d in stale:
            print(f"  - {d}  (remove or rename {fix.format(d)})")
    return not missing and not stale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".", help="repository root")
    args = ap.parse_args()
    repo = Path(args.repo)

    for path in (PIER_SOURCE, DHT_SOURCE):
        if not (repo / path).exists():
            sys.exit(f"check_config_docs: missing {repo / path}")
    docs_path = repo / DOCS
    if not docs_path.exists():
        sys.exit(f"check_config_docs: missing {docs_path} — every PierConfig knob "
                 f"must be documented there")
    docs = docs_path.read_text()

    pier_source = (repo / PIER_SOURCE).read_text()
    pier_ok = compare(
        "PierConfig",
        struct_fields(pier_source, "PierConfig", PIER_SOURCE),
        documented_knobs(docs),
        "its '### `{}`' section",
    )
    stats_ok = compare(
        "EngineStats",
        struct_fields(pier_source, "EngineStats", PIER_SOURCE),
        counter_rows(docs),
        "its '| `{}` |' row in the '## Counters' table",
    )
    dht_ok = compare(
        "DhtConfig",
        struct_fields((repo / DHT_SOURCE).read_text(), "DhtConfig", DHT_SOURCE),
        dht_section_fields(docs),
        "its '* `{}`' bullet in the '### `dht`' section",
    )
    if not (pier_ok and dht_ok and stats_ok):
        return 1
    print("check_config_docs: every configuration knob and counter is documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
