"""Solver-session layer: one content-addressed solve cache behind every
entry point.

The package splits into the three pieces the ROADMAP's
scheduling-as-a-service item starts from:

* :mod:`repro.session.canon` — the one canonicalization / exact-Fraction
  serialization module (canonical JSON, ``"num/den"`` rational text,
  content keys, the memoized salted code fingerprint);
* :mod:`repro.session.cache` — :class:`SolveCache`, the generic
  content-addressed KV store (SQLite index + JSONL payloads, exact
  round-trip); the sweep runner (:mod:`repro.runner`) writes its task
  records into it directly;
* :mod:`repro.session.request` / :mod:`repro.session.session` —
  :class:`SolveRequest` (canonical description of what is being solved) and
  :class:`Session` (the façade owning the backend default and the cache,
  through which ``two_approximation``, ``minimal_fractional_T``, the
  memory models, ``schedule_hierarchical`` templates and batch admission
  all route).
"""

from .cache import SolveCache
from .canon import (
    FINGERPRINT_SALT_ENV,
    canonical,
    canonical_json,
    code_fingerprint,
    content_key,
    frac_to_str,
    str_to_frac,
)
from .request import SolveRequest, instance_signature
from .session import Session, default_cache, set_default_cache

__all__ = [
    "FINGERPRINT_SALT_ENV",
    "Session",
    "SolveCache",
    "SolveRequest",
    "canonical",
    "canonical_json",
    "code_fingerprint",
    "content_key",
    "default_cache",
    "frac_to_str",
    "instance_signature",
    "set_default_cache",
    "str_to_frac",
]
