"""Run one ``wellcascade`` command in this interpreter with the tracer installed.

Usage: python3 perfbench/cli_child.py TRACE_JSON WELLCASCADE_ARGS...

Records a ``cli.import`` span around ``import wellcascade.cli``, calls
``wellcascade.cli.main`` through the module attribute (so the wrapper runs),
and writes the spans to TRACE_JSON before exiting with main's exit code.
The traced cascade-cli op runs this in place of the console script.
"""

import json
import sys
import time

t0 = time.perf_counter()
import wellcascade.cli  # noqa: E402  (the import is what the span times)

t1 = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.add("cli.import", t0, t1, -1)
    tracer.install()
    try:
        return wellcascade.cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
