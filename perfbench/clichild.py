"""One traced CLI request: ``python -m klein_lattice.cli ARGS`` with the
tracer installed after the import.

    python3 perfbench/clichild.py OUT_FILE ARGS...

Writes the import and main times, the per-function numbers and the spans to
OUT_FILE, then exits the way the CLI would (an exception escaping main()
still prints its traceback).
"""

import json
import sys
import time

started = time.monotonic()

import tracer  # noqa: E402

t0 = time.monotonic()
import klein_lattice.cli as cli  # noqa: E402

imported = time.monotonic()
tr = tracer.Tracer()
tr.install()
try:
    code = cli.main(sys.argv[2:])
finally:
    ended = time.monotonic()
    tr.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({
            "started": started, "ended": ended, "import_s": imported - t0,
            "main_s": ended - imported, "trace": tr.export(), "spans": tr.span_records(),
        }, fh)
sys.exit(code)
