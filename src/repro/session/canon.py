"""Canonical serialization shared by every content-addressed layer.

One module owns the three encodings that the sweep runner, the solve cache
and ``schedule/serialize.py`` share:

* **canonical JSON** — :func:`canonical` / :func:`canonical_json` reduce an
  arbitrary parameter structure to a strict-JSON form that is stable across
  processes and runs (dicts sorted, tuples flattened to lists, scalars
  delegated to :func:`repro.analysis.tables.encode_cell`, which tags
  Fractions and non-finite floats exactly);
* **exact rational text** — :func:`frac_to_str` / :func:`str_to_frac`
  round-trip a ``Fraction`` through ``"num/den"`` losslessly (the schedule
  serializer's wire format);
* **content keys** — :func:`content_key` hashes canonical parts into the
  sha256 hex digest that addresses cache entries and sweep tasks, and
  :func:`code_fingerprint` hashes the installed package's sources so a code
  edit invalidates exactly the results produced before it.

``code_fingerprint`` is memoized **per process and per salt**: the directory
walk and file hashing run once, and every subsequent call is a dict lookup.
Setting ``REPRO_FINGERPRINT_SALT`` mixes the salt into the digest — a
deliberate cache-busting lever for tests and operational invalidation — and
each distinct salt value gets its own memo slot, so flipping the salt back
restores the original fingerprint (and with it, cache-hit behavior against
the original generation).
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Any, Dict, List

from ..analysis.tables import encode_cell

#: Environment variable mixed into :func:`code_fingerprint` when set.
FINGERPRINT_SALT_ENV = "REPRO_FINGERPRINT_SALT"


def canonical(obj: Any) -> Any:
    """Reduce *obj* to a canonical strict-JSON-safe form for hashing/storage.

    Tuples flatten to lists, dicts are emitted sorted; scalars delegate to
    :func:`repro.analysis.tables.encode_cell` — the one place that knows how
    to tag Fractions and non-finite floats exactly and to stringify anything
    else (e.g. a Topology passed programmatically) deterministically.
    """
    if isinstance(obj, dict):
        return {str(k): canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return encode_cell(obj)


def canonical_json(obj: Any) -> str:
    """The canonical JSON string of *obj* (stable across processes/runs)."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj: Any) -> bytes:
    """:func:`canonical_json` as UTF-8 — the exact bytes a payload line holds
    (minus the trailing newline)."""
    return canonical_json(obj).encode("utf-8")


def frac_to_str(value: Fraction) -> str:
    """``Fraction`` → ``"num/den"`` (lossless, arbitrary precision)."""
    return f"{value.numerator}/{value.denominator}"


def str_to_frac(text: str) -> Fraction:
    """Inverse of :func:`frac_to_str`; a bare integer string also parses."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def content_key(*parts: str) -> str:
    """sha256 hex digest of the newline-joined *parts* — the one content
    addressing scheme used by sweep tasks and solve-cache entries alike."""
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


#: Per-process fingerprint memo, keyed by the salt in effect at call time.
_fingerprints: Dict[str, str] = {}


def _compute_fingerprint(salt: str) -> str:
    """SHA-256 over every ``*.py`` source file of the ``repro`` package."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    sources: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                sources.append(os.path.join(dirpath, name))
    for path in sorted(sources):
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        digest.update(b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    if salt:
        # Only a non-empty salt perturbs the digest: unsalted fingerprints
        # stay byte-compatible with stores written before the salt existed.
        digest.update(b"\0salt\0")
        digest.update(salt.encode("utf-8"))
    return digest.hexdigest()


def code_fingerprint() -> str:
    """The fingerprint of the installed ``repro`` sources (memoized).

    The expensive source walk runs once per (process, salt); repeated calls
    — one per sweep task, one per session solve — are dictionary lookups.
    """
    salt = os.environ.get(FINGERPRINT_SALT_ENV, "")
    cached = _fingerprints.get(salt)
    if cached is None:
        cached = _fingerprints[salt] = _compute_fingerprint(salt)
    return cached
