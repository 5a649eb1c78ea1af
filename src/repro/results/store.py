"""The :class:`ResultStore` protocol and the backend-agnostic helpers.

A result store is the persistence seam under the scenario pipeline: one
append-ordered collection of :class:`~repro.scenarios.core.ScenarioResult`
records that campaigns stream into (``run_specs(sink=store)``), resume
from (``resume=True`` seeds completed cells through the store's iterator)
and query after the fact.  Two backends implement it:

* :class:`~repro.results.jsonl.JsonlStore` — the historical append-only
  JSONL file, one flushed line per cell (crash-safe by construction);
* :class:`~repro.results.sqlite.SqliteStore` — a WAL-mode SQLite database
  with indexed spec coordinates and batched transactional ingest, for
  campaigns whose cell counts outgrow line-scanning.

Both speak the same protocol, so every producer and consumer — the
execution core, the CLI, conversion tools — is backend-independent.
:func:`open_store` picks a backend from a path's
extension (or an explicit name); :func:`copy_results` streams any store
(or raw record path) into any other, which is all a JSONL ↔ SQLite
conversion is.

Record identity is the **full spec**: :func:`spec_store_hash` hashes the
spec's canonical JSON, so two cells differing only in provenance
(``group``) or reporting convention (``cost_model``) stay distinct rows —
unlike the *behavioural* cache key of :mod:`repro.scenarios.cache`, which
deliberately conflates them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.core import ScenarioResult
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ResultStore",
    "STORE_BACKENDS",
    "spec_store_hash",
    "open_store",
    "copy_results",
    "iter_results",
]

#: Registered backend names (see :func:`open_store`).
STORE_BACKENDS = ("jsonl", "sqlite")

#: Path suffixes that select the SQLite backend when no explicit backend
#: is given to :func:`open_store`; anything else defaults to JSONL.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def spec_store_hash(spec: "ScenarioSpec") -> str:
    """Stable content hash of a spec's canonical JSON (store identity).

    Hashes *every* spec field — unlike the behavioural cache key
    (:func:`repro.scenarios.cache.spec_cache_key`), which excludes
    provenance/reporting fields — so store queries by hash retrieve
    exactly the requested cell, ``group`` and all.
    """
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


@runtime_checkable
class ResultStore(Protocol):
    """What every results backend provides (structural protocol).

    ``write``/``append`` are synonyms: one record lands durably before
    the call returns (the streaming crash contract ``run_specs`` relies
    on).  ``append_many`` is the batched-ingest path — backends may
    amortize durability across a batch (SQLite groups rows into
    transactions), trading the per-record contract for throughput.
    Iteration yields records in append order; ``query``/``count_records``
    filter on spec coordinates (and the store's campaign ``scale`` label,
    where it carries one); ``schema_version`` reports the record layout
    so readers can refuse or migrate formats they predate.
    """

    path: Path

    def write(self, result: "ScenarioResult") -> None: ...

    def append(self, result: "ScenarioResult") -> None: ...

    def append_many(self, results: Iterable["ScenarioResult"]) -> int: ...

    def __iter__(self) -> Iterator["ScenarioResult"]: ...

    def query(self, **filters: Any) -> Iterator["ScenarioResult"]: ...

    def count_records(self, **filters: Any) -> int: ...

    def schema_version(self) -> int: ...

    def close(self) -> None: ...


def matches_filters(
    result: "ScenarioResult",
    *,
    spec_hash: Optional[str] = None,
    group: Optional[str] = None,
    workload: Optional[str] = None,
    algorithm: Optional[str] = None,
    k: Optional[int] = None,
    n: Optional[int] = None,
) -> bool:
    """The shared query predicate (what SQLite expresses as ``WHERE``)."""
    spec = result.spec
    if group is not None and spec.group != group:
        return False
    if workload is not None and spec.workload != workload:
        return False
    if algorithm is not None and spec.algorithm != algorithm:
        return False
    if k is not None and spec.k != k:
        return False
    if n is not None and spec.n != n:
        return False
    if spec_hash is not None and spec_store_hash(spec) != spec_hash:
        return False
    return True


def open_store(
    path: "str | Path",
    *,
    backend: Optional[str] = None,
    **kwargs: Any,
) -> "ResultStore":
    """Open a result store at ``path``, picking the backend by extension.

    ``backend="jsonl"``/``"sqlite"`` overrides the inference
    (``.sqlite``/``.sqlite3``/``.db`` → SQLite, everything else →
    JSONL).  Keyword arguments (``overwrite=``, ``scale=``, ...) pass
    through to the backend constructor.  Construction never touches the
    filesystem — both backends open lazily on first use.
    """
    from repro.results.jsonl import JsonlStore
    from repro.results.sqlite import SqliteStore

    if backend is None:
        suffix = Path(path).suffix.lower()
        backend = "sqlite" if suffix in _SQLITE_SUFFIXES else "jsonl"
    if backend == "jsonl":
        return JsonlStore(path, **kwargs)
    if backend == "sqlite":
        return SqliteStore(path, **kwargs)
    raise ValueError(
        f"unknown store backend {backend!r}; choose from {sorted(STORE_BACKENDS)}"
    )


def iter_results(source: "ResultStore | str | Path") -> Iterator["ScenarioResult"]:
    """Stream records from a store instance or a raw record path."""
    if isinstance(source, (str, Path)):
        store = open_store(source)
        try:
            yield from store
        finally:
            store.close()
        return
    yield from source


def copy_results(
    source: "ResultStore | str | Path",
    dest: "ResultStore | str | Path",
    *,
    overwrite: bool = True,
) -> int:
    """Stream every record of ``source`` into ``dest``; returns the count.

    This is the whole of a backend conversion: records pass one at a time
    through the common :class:`~repro.scenarios.core.ScenarioResult`
    representation (bounded memory for any campaign size), and the
    destination's ``append_many`` batches them transactionally where the
    backend supports it.  ``dest`` given as a path is opened fresh
    (``overwrite=True`` by default — a conversion is a copy, not an
    append); pass a store instance to control the open mode yourself.
    """
    opened = None
    if isinstance(dest, (str, Path)):
        opened = dest_store = open_store(dest, overwrite=overwrite)
    else:
        dest_store = dest
    try:
        return dest_store.append_many(iter_results(source))
    finally:
        if opened is not None:
            opened.close()
