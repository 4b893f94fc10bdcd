"""Run ``python -m repro.serve`` under the benchmark's layer probes.

Used only for serve-warm's traced pass.  ``python3 tracedaemon.py
DUMP_DIR -- <daemon args>`` installs the Figure-11 probes, then hands
over to the daemon's own ``main``.  Each SIGUSR1 writes
``DUMP_DIR/dump-<n>.json``: the probe totals, the daemon's obs counters
and the spans recorded since the previous dump, and the scheduler's
lifetime counters.  The benchmark takes one dump before and one after
the traced pass and subtracts.
"""

import itertools
import json
import os
import signal
import sys
import threading
import time

from probes import Probes, reduce_snapshot


def main(argv) -> int:
    dump_dir, sep, *daemon_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracedaemon.py DUMP_DIR -- <daemon args>")
    probes = Probes()
    probes.install_monitors()
    requested = threading.Event()

    def dumper():
        from repro.core.scheduler import peek_scheduler
        from repro.obs import get_collector

        seen = 0
        for n in itertools.count():
            requested.wait()
            requested.clear()
            snap = get_collector().snapshot()
            scheduler = peek_scheduler()
            doc = {
                "t": time.perf_counter(),
                "probes": probes.snapshot(),
                "reduced": reduce_snapshot(snap, seen),
                "telemetry": scheduler.telemetry() if scheduler is not None else {},
            }
            seen = len(snap["spans"])
            tmp = os.path.join(dump_dir, f".dump-{n}.json")
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, os.path.join(dump_dir, f"dump-{n}.json"))

    threading.Thread(target=dumper, name="perfbench-dump", daemon=True).start()
    signal.signal(signal.SIGUSR1, lambda signum, frame: requested.set())

    from repro.serve.__main__ import main as serve_main

    return serve_main(daemon_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
