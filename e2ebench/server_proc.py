"""One query server in a process of its own, for the HTTP workloads.

Usage::

    python3 e2ebench/server_proc.py --data-root DIR [--trace-out FILE]

Prints ``{"port": N}`` once the server listens.  A line on standard
input, or its end, stops the server gracefully; the process then
prints ``{"peak_rss_mb": ..., "shutdown_error": ...}`` and exits.
With ``--trace-out`` the layer wrappers of :mod:`spans` are installed
before the server starts and its spans are written to that file.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from common import import_repro, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-root", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    import_repro()
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, server=True)
    from repro.server import ServerThread

    # The server thread re-raises a tenant's stored batch failure when
    # it shuts down; keep it as a finding instead of a stray traceback.
    errors = []
    threading.excepthook = lambda hook: errors.append(
        f"{hook.exc_type.__name__}: {hook.exc_value}"
    )
    server = ServerThread(data_root=args.data_root).start()
    print(json.dumps({"port": server.port}), flush=True)
    sys.stdin.readline()
    server.stop()
    peak = peak_rss_mb()
    if tracer is not None:
        with open(args.trace_out, "w") as handle:
            json.dump(spans.jsonable(tracer.spans), handle)
    print(json.dumps({"peak_rss_mb": peak, "shutdown_error": errors[0] if errors else None}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
