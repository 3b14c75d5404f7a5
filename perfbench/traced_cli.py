"""Runs one d21link command with the layer tracer installed.

    traced_cli.py STATS.json <d21link arguments...>

Used by the traced ``cli`` workload in place of ``python -m d21link.cli``.
The command's own output and exit status are unchanged; the tracer's
aggregates and spans go to STATS.json when the command returns.
"""

import json
import sys

from tracer import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import d21link.cli
    tracer = Tracer()
    tracer.install()
    tracer.phase = "op"
    try:
        return d21link.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({"aggregate": tracer.export(), "spans": tracer.spans},
                      handle)


if __name__ == "__main__":
    sys.exit(main())
