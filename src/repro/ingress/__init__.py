"""Async socket ingress gateway in front of the serve farm.

The serve farm (:mod:`repro.serving.farm`) is an in-process object: one
Python process owns the worker pipes, and only that process can serve.
This package puts a network front door on it —

* :mod:`repro.ingress.protocol` — a tiny length-prefixed binary wire
  protocol (versioned handshake, serve/metrics/ping ops; v2 adds
  retry-after hints on sheds and a per-shard health/breaker trailer on
  METRICS);
* :mod:`repro.ingress.server` — :class:`IngressServer`, an asyncio
  server that accepts many concurrent connections, coalesces requests
  into per-shard micro-batches (amortising the farm's pipe round trips),
  applies backpressure via bounded per-shard queues, load-sheds with
  explicit ``OVERLOAD`` responses under admission/deadline pressure,
  sheds *immediately* via per-shard circuit breakers
  (:class:`CircuitBreaker`) while a shard is sick, and drains gracefully
  on SIGTERM;
* :mod:`repro.ingress.client` — a blocking :class:`IngressClient` with
  reconnect-and-retry under :class:`~repro.reliability.retry.RetryPolicy`
  (plus optional honoring of the server's retry-after hint on overload)
  and an :class:`AsyncIngressClient` that multiplexes concurrent
  requests over one connection.

Start a server from the command line with ``repro serve --shards N
--port P``; measure the socket path with ``python3 perfbench/run.py
--workload ingress-zipf``; storm it with ``repro chaos``.
"""

from repro.ingress.breaker import BreakerConfig, CircuitBreaker
from repro.ingress.client import (
    AsyncIngressClient,
    IngressClient,
    default_retry_policy,
)
from repro.ingress.server import IngressServer

__all__ = [
    "AsyncIngressClient",
    "BreakerConfig",
    "CircuitBreaker",
    "IngressClient",
    "IngressServer",
    "default_retry_policy",
]
