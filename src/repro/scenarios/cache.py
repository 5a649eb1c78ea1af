"""Per-cell result cache keyed on the spec's behavioural fingerprint.

A scenario cell is pure computation: its totals are fully determined by
the trace coordinates, the algorithm and the arity.  This module persists
each computed :class:`~repro.scenarios.core.ScenarioResult` under a
content key derived from exactly those fields, so re-running a campaign
— after a crash, on another scale's shared cells, or across the
``run_all`` grid — recomputes only cells whose work is genuinely new.

**What is in the key** (see :func:`spec_cache_key`): workload, ``n``,
``m``, ``seed``, algorithm, ``k``, the *resolved* engine, the initial
topology and the algorithm ``params``, plus :data:`RESULT_CACHE_VERSION`.  ``group`` (provenance) and
``cost_model`` (a reporting convention over the recorded raw totals) are
deliberately excluded — the same cell reached through different campaigns
is the same work.  ``engine=None`` and an explicit ``engine="flat"``
resolve to the same key; ``engine="object"`` caches separately so
cross-engine checks always exercise both backends.

**What invalidates an entry**: any key field changing, or a bump of
:data:`RESULT_CACHE_VERSION` — bump it whenever algorithm/trace semantics
change so recorded totals for the same spec would differ.  ``--refresh``
(or ``refresh=True`` on ``run_specs``) bypasses lookups and overwrites.

Entries are one JSON file per cell under ``<results_root>/cache/`` (env
override ``REPRO_RESULTS_DIR``), written atomically, so parallel
campaigns can share a cache directory.  The ``REPRO_RESULT_CACHE``
environment variable opts un-configured ``run_specs`` calls in
(``1``/``true``) and opts cache-on-by-default surfaces like ``repro
scenarios run`` out (``0``/``false``) — the CI matrix runs the
equivalence suite both ways.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

from repro.results.paths import results_root
from repro.scenarios.core import ScenarioResult
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "RESULT_CACHE_VERSION",
    "RESULT_CACHE_ENV",
    "ResultCache",
    "default_cache_dir",
    "env_disables_cache",
    "resolve_result_cache",
    "spec_cache_key",
]

#: Bump when a code change alters what any cached spec would compute
#: (workload generation, serve semantics, cost accounting, ...).
RESULT_CACHE_VERSION = 1

#: Environment opt-in for callers that leave ``run_specs(cache=None)``.
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def env_disables_cache() -> bool:
    """Whether ``REPRO_RESULT_CACHE`` is explicitly set to a falsy value.

    Surfaces that default the cache *on* (``repro scenarios run``) honor
    this as an opt-out, so the env var can force fresh computation
    everywhere without per-command ``--no-cache`` flags.
    """
    value = os.environ.get(RESULT_CACHE_ENV)
    return value is not None and value.strip().lower() in _FALSY


def default_cache_dir() -> Path:
    """``<results_root>/cache`` — next to the JSONL records it derives from."""
    return results_root() / "cache"


def _key_fields(spec: ScenarioSpec) -> dict[str, Any]:
    """The behaviour-determining coordinates of a cell (see module doc)."""
    return {
        "version": RESULT_CACHE_VERSION,
        "workload": spec.workload,
        "n": spec.n,
        "m": spec.m,
        "seed": spec.seed,
        "algorithm": spec.algorithm,
        "k": spec.k,
        "engine": spec.resolved_engine(),
        "initial": spec.initial,
        "params": dict(spec.params),
    }


def spec_cache_key(spec: ScenarioSpec) -> str:
    """Stable content hash of a spec's behavioural fingerprint."""
    payload = json.dumps(_key_fields(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Directory-backed cell cache with hit/miss/store counters.

    ``lookup`` returns the stored result re-attached to the *requested*
    spec (so provenance fields like ``group`` follow the campaign asking,
    not the campaign that computed).  ``store`` writes atomically via a
    sibling temp file, so concurrent campaigns sharing the directory
    never observe torn entries.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def lookup(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """The cached result for ``spec``, or ``None`` on any doubt."""
        key = spec_cache_key(spec)
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        # Paranoia: the stored fingerprint must match the request exactly
        # (guards version bumps racing old files and hash collisions).
        if data.get("key_fields") != _key_fields(spec):
            self.misses += 1
            return None
        result = data.get("result")
        try:
            restored = ScenarioResult(
                spec=spec,
                total_routing=result["total_routing"],
                total_rotations=result["total_rotations"],
                total_links_changed=result["total_links_changed"],
                elapsed_seconds=result.get("elapsed_seconds", 0.0),
            )
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return restored

    def store(self, result: ScenarioResult) -> Path:
        """Persist one computed cell (atomic overwrite); returns its path."""
        key = spec_cache_key(result.spec)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key_fields": _key_fields(result.spec),
            "result": result.to_dict(),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


def resolve_result_cache(
    cache: Union["ResultCache", bool, None]
) -> Optional[ResultCache]:
    """Normalize a ``run_specs``-style ``cache`` argument.

    ``ResultCache`` instances pass through; ``True`` means the default
    cache directory; ``False`` disables caching unconditionally; ``None``
    defers to the ``REPRO_RESULT_CACHE`` environment variable (off unless
    truthy).
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return ResultCache()
    if cache is False:
        return None
    if os.environ.get(RESULT_CACHE_ENV, "").strip().lower() in _TRUTHY:
        return ResultCache()
    return None
