"""Run the screwalgebra command line once under the span tracer.

Usage: python3 bench/traced_cli.py <subcommand> [args...]

Behaves like ``python -m screwalgebra.cli`` (same stdout, same exit code)
and writes its spans as one JSON line to stderr for the benchmark to merge.
"""

import json
import sys

import screwalgebra.cli as cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps(tracer.dump()), file=sys.stderr)
    sys.exit(code)
