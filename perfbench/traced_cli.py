"""Run one qnogo command line with the benchmark's spans installed.

    python perfbench/traced_cli.py SPANS_FILE ARG...

behaves like `python -m qnogo ARG...` and, on exit, writes the spans and
counters it recorded to SPANS_FILE as JSON.
"""

import json
import sys

import qnogo.cli

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return qnogo.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
