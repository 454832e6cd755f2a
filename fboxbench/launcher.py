"""Server process for the F-Box service benchmark.

Builds the service with ``make_server`` on an ephemeral port and prints one
JSON line ``{"port", "pid", "namespace"}`` before serving.  SIGTERM drains
in-flight requests, stops the listener, and closes the app, which stops the shard workers and unlinks
the run's shared-memory segments.  With ``--trace-dir`` the layer entry
points are wrapped in spans (see ``spans.py``) before anything is built.

    python3 fboxbench/launcher.py [--shards N] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import atexit
import inspect
import json
import os
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The serving configuration the benchmark measures.  Transport and core are
# passed only while make_server still offers a choice.
CONFIGURATION = {"backend": "asyncio", "core": "columnar"}
DRAIN_GRACE_S = 20.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    if args.trace_dir:
        import spans

        spans.install(args.trace_dir)
        atexit.register(spans.flush)
    from repro.service.server import make_server

    accepted = inspect.signature(make_server).parameters
    options = {key: value for key, value in CONFIGURATION.items() if key in accepted}
    server = make_server(port=0, shards=args.shards, quiet=True, **options)
    registry = server.context.registry
    getattr(registry, "segments", None)  # fix the segment namespace up front
    namespace = getattr(registry, "namespace", None)
    print(
        json.dumps(
            {"port": server.server_address[1], "pid": os.getpid(), "namespace": namespace}
        ),
        flush=True,
    )
    # Drain, not shutdown: a request still building a cube must finish
    # before server_close sweeps the segments it is about to publish.
    signal.signal(
        signal.SIGTERM,
        lambda signum, frame: threading.Thread(
            target=server.drain, args=(DRAIN_GRACE_S,)
        ).start(),
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
