"""Output gate: stored per-word value digests of the 7128 sweep words.

``digests.json`` maps each family tag to the digest of every word's value, in
index order.  At the commit that generated it the colored Alexander and the
specialized Links-Gould values of each word are equal, so one digest covers
both, and a sweep output is correct when both of its values match it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


def value_digest(value) -> str:
    """Short digest of an exact invariant value's canonical text."""
    return hashlib.sha256(str(value).encode("ascii")).hexdigest()[:16]


def load_digests() -> dict[str, list[str]]:
    with open(DIGEST_FILE, encoding="ascii") as fh:
        return json.load(fh)["families"]
