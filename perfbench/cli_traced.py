"""``python -m hyperlim`` with the spans of tracer.py installed.

Usage: python cli_traced.py <hyperlim arguments>. The span totals go, as
JSON, to the file named by PERFBENCH_TRACE_OUT when the command ends.
"""

import json
import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402

if __name__ == "__main__":
    tracer = tr.Tracer()
    tr.install(tracer)
    code = 0
    try:
        runpy.run_module("hyperlim", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(dict(tracer.totals), fh)
    sys.exit(code)
