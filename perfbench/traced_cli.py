"""Run one ``kossprobe.cli`` call with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_PATH SUBCOMMAND [ARGS...]

Behaves like ``python -m kossprobe.cli SUBCOMMAND [ARGS...]`` and also
writes the call's spans to SPANS_PATH.
"""

import sys

import kossprobe.cli as cli
from tracer import Tracer, write_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.item = 0
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        write_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
