"""Run one fockpr command in this process with the layer wrappers installed.

    python perfbench/tracecli.py SPANS.json generate --construction rand3 ...

Calls ``fockpr.cli.main`` on the remaining arguments inside a root span
named ``cli``, writes the spans, tallies and counts to ``SPANS.json`` and
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from fockpr.cli import main as cli_main

    tracer.open("cli")
    try:
        return cli_main(argv)
    finally:
        tracer.close()
        tracer.finish()
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
