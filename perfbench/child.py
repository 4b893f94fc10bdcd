"""Entry point of the benchmark's child processes.

``python3 child.py <kind> '<json args>'`` runs one function of
``passes.py`` in a fresh interpreter and writes its result as JSON to
``args["out"]``.  ``run.py`` starts these; they are not meant to be run
by hand.
"""

import json
import sys

import passes

KINDS = {
    "fig11-cold": passes.fig11_cold,
    "fig11-startup": passes.fig11_startup,
    "jit-sweep": passes.jit_sweep,
}


def main(argv) -> int:
    kind, raw = argv
    args = json.loads(raw)
    out = args.pop("out")
    result = KINDS[kind](**args)
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
