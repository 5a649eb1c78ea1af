"""Run ``repro serve`` with timing wrappers around the gateway's layers.

Usage: ``python serve_traced.py OUT.json [repro serve flags...]``

The gateway runs the unchanged ``repro serve`` code after two public
entry points are wrapped: ``ServeFarm.serve_grouped`` (one record per
call: shard, start, end, batch size and the shard's cumulative worker
busy seconds from ``FarmMetrics.busy_seconds``) and the request/response
codec (seconds summed into 100 ms buckets of ``time.monotonic``).  The
monotonic clock is shared by every process on the host, so the load
generator can cut these records to its own phase boundaries.  The
records are written to OUT.json after the server has drained.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    from repro import cli
    from repro.ingress import protocol
    from repro.serving.farm import ServeFarm

    out, serve_args = Path(argv[0]), argv[1:]
    calls: list[tuple] = []
    codec: dict[int, float] = {}

    grouped = ServeFarm.serve_grouped

    def serve_grouped(self, shard, batches):
        start = time.monotonic()
        results = grouped(self, shard, batches)
        end = time.monotonic()
        busy = self.metrics.busy_seconds.get(shard, 0.0)
        calls.append((shard, start, end, len(batches), busy))
        return results

    ServeFarm.serve_grouped = serve_grouped

    def timed(original):
        # Codec calls run on the event-loop thread only.
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            result = original(*args, **kwargs)
            bucket = int(start * 10)
            codec[bucket] = codec.get(bucket, 0.0) + time.monotonic() - start
            return result

        return wrapper

    protocol.decode_request = timed(protocol.decode_request)
    protocol.encode_response = timed(protocol.encode_response)

    code = cli.main(["serve", *serve_args])
    out.write_text(json.dumps({"calls": calls, "codec": codec}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
