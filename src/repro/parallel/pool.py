"""Process-pool map primitives with deterministic ordering and recovery.

A thin, dependency-free layer over :class:`concurrent.futures` tuned for the
shape of this repository's workloads: tens-to-hundreds of medium-grained
tasks (one trace simulation each), where result *order* must match
submission order and failures must surface with context rather than as bare
tracebacks from a worker.

Why not ``multiprocessing.Pool.map`` directly?  Four reasons:

* serial fallback — ``jobs=1`` runs in-process, so unit tests exercise the
  exact task functions without fork overhead and coverage tools see them;
* chunk sizing — tasks here are seconds-long, so the default is one task
  per dispatch (``chunk_size=1``); callers batching many micro-tasks can
  raise it;
* failure policy — ``on_error="raise"`` (default) re-raises the first
  failure with the offending item attached; ``on_error="collect"`` returns
  per-item :class:`TaskOutcome` records so a sweep survives isolated cell
  failures (e.g. an optimal-tree DP that exceeds a node budget);
* recovery — transient failures are retried with deterministic
  exponential backoff (``retries``/``backoff``), stuck tasks are bounded
  by a per-dispatch wall-clock ``task_timeout``, and a worker killed
  mid-task (``BrokenProcessPool``) triggers an executor **respawn** that
  resubmits only the unfinished chunks — a crashed worker costs one
  respawn, never the campaign.

The fault-injection point ``pool.task`` (see
:mod:`repro.reliability.faults`) fires inside the per-item execution
wrapper on both the serial and pooled paths, so the recovery machinery
above is pinned by tests that deterministically crash it.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Literal, Optional, Sequence, TypeVar

from repro.errors import ExperimentError, ReliabilityError
from repro.reliability.faults import fire_fault, kill_process
from repro.reliability.retry import RetryPolicy

__all__ = [
    "ParallelConfig",
    "TaskOutcome",
    "cpu_jobs",
    "parallel_map",
    "parallel_map_outcomes",
    "parallel_starmap",
]

T = TypeVar("T")
R = TypeVar("R")


def cpu_jobs(reserve: int = 1, *, cap: Optional[int] = None) -> int:
    """A sensible worker count: ``cpu_count - reserve``, at least 1.

    ``reserve`` keeps cores free for the parent process and the OS; ``cap``
    bounds the result (e.g. when tasks are memory-hungry).
    """
    count = os.cpu_count() or 1
    jobs = max(1, count - max(0, reserve))
    if cap is not None:
        jobs = max(1, min(jobs, cap))
    return jobs


@dataclass(frozen=True)
class ParallelConfig:
    """Execution knobs of :func:`parallel_map` and the campaign runner.

    Attributes
    ----------
    jobs:
        Worker process count. ``1`` (default) executes serially in the
        calling process; ``0`` or negative resolves to :func:`cpu_jobs`.
    chunk_size:
        Items handed to a worker per dispatch.  Keep at 1 for seconds-long
        tasks; raise for micro-tasks to amortize IPC.  Retries and
        timeouts apply per *chunk*, so recovery granularity follows this.
    on_error:
        ``"raise"`` aborts on the first failure; ``"collect"`` records
        failures per item and keeps going.
    max_pending:
        Backpressure bound: at most this many unfinished futures in flight
        (defaults to ``4 * jobs``), so a million-item iterable does not
        materialize in the executor queue.
    retries:
        Re-attempts per chunk after its first failure (``0`` = fail fast).
        Applies to both the serial and pooled paths; only ``Exception``
        subclasses are retried.
    backoff:
        Base delay (seconds) of the deterministic exponential backoff
        between re-attempts (``backoff * 2**attempt``, capped at 2s).
    task_timeout:
        Wall-clock bound (seconds) for one dispatched chunk — pooled
        execution only.  A chunk running past it is charged a failed
        attempt and its (possibly stuck) executor is torn down and
        respawned; the serial path cannot preempt and ignores this.
    pool_respawns:
        How many times a broken or deliberately torn-down executor
        (killed worker, timed-out chunk) may be respawned before the run
        gives up with :class:`~repro.errors.ReliabilityError`.
    """

    jobs: int = 1
    chunk_size: int = 1
    on_error: Literal["raise", "collect"] = "raise"
    max_pending: Optional[int] = None
    retries: int = 0
    backoff: float = 0.05
    task_timeout: Optional[float] = None
    pool_respawns: int = 2

    def resolved_jobs(self) -> int:
        if self.jobs >= 1:
            return self.jobs
        return cpu_jobs()

    def resolved_pending(self) -> int:
        if self.max_pending is not None:
            if self.max_pending < 1:
                raise ExperimentError("max_pending must be >= 1")
            return self.max_pending
        return 4 * self.resolved_jobs()

    def retry_policy(self) -> RetryPolicy:
        """The :class:`RetryPolicy` this config's retry knobs describe."""
        return RetryPolicy(retries=self.retries, base=self.backoff)

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ExperimentError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.on_error not in ("raise", "collect"):
            raise ExperimentError(
                f"on_error must be 'raise' or 'collect', got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ExperimentError(f"backoff must be >= 0, got {self.backoff}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExperimentError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.pool_respawns < 0:
            raise ExperimentError(
                f"pool_respawns must be >= 0, got {self.pool_respawns}"
            )


@dataclass
class TaskOutcome:
    """Result envelope for one input item under ``on_error='collect'``."""

    index: int
    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def _call_item(fn: Callable[[T], R], item: T) -> R:
    """Execute one item, firing the ``pool.task`` injection point first.

    ``error`` faults raise :class:`~repro.errors.FaultInjected` (absorbed
    by the retry layer like any transient failure); ``kill`` faults
    hard-exit the hosting process — in a worker that simulates SIGKILL
    and surfaces as ``BrokenProcessPool`` in the parent.
    """
    spec = fire_fault("pool.task", context=repr(item))
    if spec is not None and spec.mode == "kill":
        kill_process(spec)
    return fn(item)


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> list[R]:
    """Worker-side loop (module-level so it pickles under spawn)."""
    return [_call_item(fn, item) for item in chunk]


def _serial_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    config: ParallelConfig,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> list[TaskOutcome]:
    policy = config.retry_policy()
    outcomes: list[TaskOutcome] = []
    for index, item in enumerate(items):
        attempts = 0
        while True:
            attempts += 1
            try:
                outcome = TaskOutcome(
                    index, value=_call_item(fn, item), attempts=attempts
                )
                break
            except Exception as exc:  # noqa: BLE001 - policy decides
                if attempts <= config.retries and policy.is_transient(exc):
                    delay = policy.delay(attempts)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if config.on_error == "raise":
                    raise ExperimentError(
                        f"task {index} failed on item {item!r}: {exc}"
                    ) from exc
                outcome = TaskOutcome(index, error=exc, attempts=attempts)
                break
        if on_outcome is not None:
            on_outcome(outcome)
        outcomes.append(outcome)
    return outcomes


def _chunks(items: Sequence[T], size: int) -> list[tuple[int, Sequence[T]]]:
    return [
        (start, items[start : start + size])
        for start in range(0, len(items), size)
    ]


@dataclass
class _ChunkState:
    """Scheduling state of one dispatched chunk (retries, backoff)."""

    start: int
    items: Sequence[Any]
    attempts: int = 0
    not_before: float = field(default=0.0, repr=False)


def _parallel_outcomes(
    fn: Callable[[T], R],
    items: Sequence[T],
    config: ParallelConfig,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> list[TaskOutcome]:
    """The pooled scheduler: backpressure, retries, timeouts, respawns.

    Invariants: every chunk reaches exactly one terminal state (success
    or failure), terminal outcomes are emitted to ``on_outcome`` in
    completion order, and the returned list is in submission order.
    """
    jobs = config.resolved_jobs()
    max_pending = config.resolved_pending()
    policy = config.retry_policy()
    outcomes: list[Optional[TaskOutcome]] = [None] * len(items)
    pending: deque[_ChunkState] = deque(
        _ChunkState(start, chunk)
        for start, chunk in _chunks(items, config.chunk_size)
    )
    respawns_left = config.pool_respawns

    def emit_success(state: _ChunkState, values: list[Any]) -> None:
        for offset, value in enumerate(values):
            outcome = TaskOutcome(
                state.start + offset, value=value, attempts=state.attempts + 1
            )
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    def emit_failure(state: _ChunkState, exc: BaseException) -> None:
        if config.on_error == "raise":
            raise ExperimentError(
                f"task chunk starting at {state.start} failed after"
                f" {state.attempts} attempt(s): {exc}"
            ) from exc
        for offset in range(len(state.items)):
            outcome = TaskOutcome(
                state.start + offset, error=exc, attempts=state.attempts
            )
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    def charge_attempt(state: _ChunkState, exc: BaseException) -> None:
        """One failed attempt: requeue with backoff, or go terminal."""
        state.attempts += 1
        if state.attempts <= config.retries and policy.is_transient(exc):
            state.not_before = time.monotonic() + policy.delay(state.attempts)
            pending.append(state)
        else:
            emit_failure(state, exc)

    pool = ProcessPoolExecutor(max_workers=jobs)
    in_flight: dict[Any, tuple[_ChunkState, Optional[float]]] = {}

    def respawn(cause: BaseException, reason: str) -> None:
        """Tear down the executor, resubmit every unfinished chunk."""
        nonlocal pool, respawns_left
        if respawns_left <= 0:
            raise ReliabilityError(
                f"worker pool gave up after {config.pool_respawns} respawn(s):"
                f" {reason}: {cause}"
            ) from cause
        respawns_left -= 1
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=jobs)
        # Unfinished in-flight chunks go back to the queue; the caller
        # charges the blamed chunk separately.
        for state, _ in in_flight.values():
            pending.append(state)
        in_flight.clear()

    try:
        while pending or in_flight:
            # -- submit every ready chunk within the backpressure bound --
            now = time.monotonic()
            for _ in range(len(pending)):
                if len(in_flight) >= max_pending:
                    break
                state = pending.popleft()
                if state.not_before > now:
                    pending.append(state)  # still backing off; rotate past
                    continue
                deadline = (
                    now + config.task_timeout
                    if config.task_timeout is not None
                    else None
                )
                future = pool.submit(_run_chunk, fn, state.items)
                in_flight[future] = (state, deadline)
            if not in_flight:
                # Everything runnable is backing off: sleep to the soonest.
                soonest = min(state.not_before for state in pending)
                time.sleep(max(0.0, soonest - time.monotonic()))
                continue

            # -- wait for completions (bounded by deadlines/backoffs) ----
            horizons = [
                deadline for _, deadline in in_flight.values() if deadline
            ]
            if pending:
                horizons.extend(
                    state.not_before
                    for state in pending
                    if state.not_before > 0
                )
            timeout = (
                max(0.0, min(horizons) - time.monotonic()) if horizons else None
            )
            done, _ = wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )

            broken: Optional[tuple[_ChunkState, BaseException]] = None
            for future in done:
                state, _deadline = in_flight.pop(future)
                try:
                    values = future.result()
                except BrokenProcessPool as exc:
                    # The executor died under this chunk (a killed
                    # worker).  Every other in-flight future is dead too;
                    # stop collecting and rebuild below.
                    broken = (state, exc)
                    break
                except Exception as exc:  # noqa: BLE001 - policy decides
                    charge_attempt(state, exc)
                else:
                    emit_success(state, values)

            if broken is not None:
                state, exc = broken
                respawn(exc, f"worker died running chunk at {state.start}")
                # The surfacing chunk is charged an attempt (a chunk that
                # *always* kills its worker must not loop forever); the
                # other resubmitted chunks ride the respawn for free.
                charge_attempt(state, exc)
                continue

            # -- reap chunks that outran their wall-clock budget ---------
            now = time.monotonic()
            timed_out = [
                future
                for future, (_state, deadline) in in_flight.items()
                if deadline is not None and deadline <= now
            ]
            if timed_out:
                # A stuck worker cannot be preempted; reclaim it by
                # tearing the executor down (costs one respawn).
                states = [in_flight.pop(future)[0] for future in timed_out]
                cause = ReliabilityError(
                    f"chunk(s) at {[s.start for s in states]} exceeded"
                    f" task_timeout={config.task_timeout}s"
                )
                respawn(cause, "task timeout")
                for state in states:
                    charge_attempt(state, cause)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return [outcome for outcome in outcomes if outcome is not None]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    config: Optional[ParallelConfig] = None,
    jobs: Optional[int] = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving input order in the output.

    ``fn`` and every item must be picklable when ``jobs > 1`` (use
    module-level functions and plain dataclasses).  With the default
    ``on_error="raise"`` the return is a plain list of results; under
    ``on_error="collect"`` failed slots are *omitted* — use
    :func:`parallel_map_outcomes` when you need the per-item envelopes.
    """
    outcomes = parallel_map_outcomes(fn, items, config=config, jobs=jobs)
    return [outcome.value for outcome in outcomes if outcome.ok]


def parallel_map_outcomes(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    config: Optional[ParallelConfig] = None,
    jobs: Optional[int] = None,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
) -> list[TaskOutcome]:
    """Like :func:`parallel_map` but returns :class:`TaskOutcome` envelopes.

    ``on_outcome`` (optional) is called in the parent process with each
    *terminal* outcome the moment it is known — in completion order,
    which under pooled execution may differ from submission order.  Sinks
    hook in here so a killed campaign keeps every finished cell.
    """
    if config is not None and jobs is not None and config.jobs != jobs:
        raise ExperimentError("pass either config or jobs, not conflicting both")
    if config is None:
        config = ParallelConfig(jobs=jobs if jobs is not None else 1)
    materialized = list(items)
    if not materialized:
        return []
    if config.resolved_jobs() == 1 or len(materialized) == 1:
        return _serial_map(fn, materialized, config, on_outcome)
    return _parallel_outcomes(fn, materialized, config, on_outcome)


def parallel_starmap(
    fn: Callable[..., R],
    argument_tuples: Iterable[tuple],
    *,
    config: Optional[ParallelConfig] = None,
    jobs: Optional[int] = None,
) -> list[R]:
    """``parallel_map`` for functions of several arguments."""
    return parallel_map(
        _StarCall(fn), list(argument_tuples), config=config, jobs=jobs
    )


@dataclass(frozen=True)
class _StarCall:
    """Picklable adapter turning ``fn(*args)`` into a single-argument call."""

    fn: Callable[..., Any]

    def __call__(self, args: tuple) -> Any:
        return self.fn(*args)
