"""Pluggable result storage for scenario campaigns.

The persistence seam of the reproduction: every campaign streams its
:class:`~repro.scenarios.core.ScenarioResult` cells into a
:class:`~repro.results.store.ResultStore`, and every consumer — resume
seeding, the CLI, conversions — reads back through the same protocol.
Two backends: the crash-safe append-only JSONL file
(:class:`~repro.results.jsonl.JsonlStore`, the historical sink) and an
indexed WAL-mode SQLite database
(:class:`~repro.results.sqlite.SqliteStore`) for campaigns that outgrow
line scanning.  :func:`~repro.results.store.open_store` selects a
backend by path extension or explicit name;
:func:`~repro.results.store.copy_results` converts between them.
"""

from repro.results.jsonl import (
    JSONL_SCHEMA_VERSION,
    JsonlStore,
    iter_results_jsonl,
    read_results_jsonl,
)
from repro.results.paths import (
    RESULTS_DIR_ENV,
    STORE_EXTENSIONS,
    default_results_path,
    default_store_path,
    results_root,
)
from repro.results.sqlite import SQLITE_SCHEMA_VERSION, SqliteStore
from repro.results.store import (
    STORE_BACKENDS,
    ResultStore,
    copy_results,
    iter_results,
    matches_filters,
    open_store,
    spec_store_hash,
)

__all__ = [
    "JSONL_SCHEMA_VERSION",
    "JsonlStore",
    "RESULTS_DIR_ENV",
    "ResultStore",
    "SQLITE_SCHEMA_VERSION",
    "STORE_BACKENDS",
    "STORE_EXTENSIONS",
    "SqliteStore",
    "copy_results",
    "default_results_path",
    "default_store_path",
    "iter_results",
    "iter_results_jsonl",
    "matches_filters",
    "open_store",
    "read_results_jsonl",
    "results_root",
    "spec_store_hash",
]
