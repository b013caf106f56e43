"""Run one rootspiral CLI command with spans recorded.

    python3 perfbench/clidriver.py SPANS_OUT ARG...

behaves like ``python -m rootspiral.cli ARG...``: the command's stdout is
written unchanged and its exit code returned.  In addition the import of
rootspiral.cli is timed as its own span, cli.main runs with every traced
function wrapped, and the spans are written to SPANS_OUT as JSON.
"""

import time

T_START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.span("import"):
        from rootspiral import cli
    restore = spans.install(tracer)
    captured, real_stdout = io.StringIO(), sys.stdout
    sys.stdout = captured
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real_stdout
        spans.uninstall(restore)
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"start": T_START, "end": time.perf_counter(), "spans": tracer.spans,
             "counters": tracer.counters},
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
