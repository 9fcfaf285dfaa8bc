"""Run the slucas CLI with spans recorded, then write them out.

    python3 perfbench/traced_cli.py <trace path> <slucas arguments...>

Behaves like ``python3 -m slucas.cli <slucas arguments...>`` (same output,
same exit code, tracebacks included) and writes the spans to
``<trace path>.bin`` and ``<trace path>.json`` when the CLI exits.
"""

import sys

from spans import Tracer


def main() -> None:
    trace_path = sys.argv[1]
    sys.argv = ["slucas", *sys.argv[2:]]
    tracer = Tracer()
    from slucas import cli
    tracer.install()
    entry = tracer.wrap("cli.main", cli.main)
    try:
        entry()
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    main()
