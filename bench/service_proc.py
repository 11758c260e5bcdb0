"""Runs ``TrustService`` in its own process for the decide_http phase.

Protocol on stdin/stdout, one line each:
    -> "ready"            imports done (they are not part of set-up time)
    <- "go"               build TrustService over the given files and serve
    -> "port <n>"         bound; the caller times set-up until /healthz answers
    <- "stop"             shut the server down and drop the service
    -> "stopped"
    <- end of input       shut down, write the report file and exit

With ``--trace 1`` the timing wrappers are installed before the first
TrustService is built.  The report file holds the spans and the peak
resident memory of this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--feedback", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})  # before any thread starts, so all inherit it

    sys.path.insert(0, args.src)
    from fuzzytrust import service
    from spans import Tracer, instrument

    tracer = Tracer()
    if args.trace:
        instrument(tracer)
    config = service.ServiceConfig(
        store_path=args.store,
        feedback_path=args.feedback,
        user_model_path=args.model,
        host="127.0.0.1",
        port=0,
    )
    print("ready", flush=True)

    server = thread = None

    def stop():
        nonlocal server, thread
        if server is not None:
            server.shutdown()
            server.server_close()
            thread.join()
            server = thread = None
            gc.collect()

    for line in sys.stdin:
        command = line.strip()
        if command == "go":
            stop()
            server = service.create_http_server(service.TrustService(config))
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            print(f"port {server.server_address[1]}", flush=True)
        elif command == "stop":
            stop()
            print("stopped", flush=True)
    stop()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "notes": tracer.notes,
    }
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
