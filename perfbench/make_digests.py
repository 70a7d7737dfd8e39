"""Regenerate digests.json from the current source tree.

Sweeps all 7128 check words (S4 and Types 1-10) with the audit off and stores
the digest of each word's value.  Run it only on a commit whose values are
trusted; the benchmark's output gate compares every later run against it.

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from braidinv.hecke import FAMILY_TAGS, family_words  # noqa: E402
from braidinv.verify import run_equality_sweep  # noqa: E402

from gate import DIGEST_FILE, value_digest  # noqa: E402


def main() -> int:
    families = {}
    for tag in FAMILY_TAGS:
        report = run_equality_sweep(family_words(tag), audit_fraction=0.0)
        if not report.all_equal:
            print(f"{tag}: values differ, refusing to store digests",
                  file=sys.stderr)
            return 1
        families[tag] = [value_digest(e.ado3) for e in report.entries]
        print(f"{tag}: {len(report.entries)} words "
              f"({report.timing['total']:.1f}s)", file=sys.stderr, flush=True)
    # one line per family: 11 lines instead of 7128
    body = ",\n".join(f"{json.dumps(tag)}: {json.dumps(families[tag])}"
                      for tag in FAMILY_TAGS)
    DIGEST_FILE.write_text('{"digest": "sha256(str(value))[:16]",\n'
                           f'"families": {{\n{body}\n}}}}\n', encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
