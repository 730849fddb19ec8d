"""One ``bailrule`` command, run in this process under the span tracer.

Usage: ``python traced_op.py REPORT SPANS -- <bailrule arguments>`` with
``bailrule`` importable.  Imports ``bailrule.cli`` (timed), rebinds every
public function to a tracing wrapper, calls ``bailrule.cli.main`` once and
writes the per-layer summary to REPORT (JSON) and the spans to SPANS.
Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main(argv) -> int:
    report_path, spans_path, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: traced_op.py REPORT SPANS -- ARGS...")
    t0 = time.perf_counter()
    import bailrule.cli

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.begin_op(0)
    restore = spans.install(tracer)
    t1 = time.perf_counter()
    rc = bailrule.cli.main(args)
    t2 = time.perf_counter()
    spans.uninstall(restore)
    report = {"rc": rc, "import_s": import_s, "layers": tracer.end_op()}
    tracer.dump(spans_path)
    # time spent in the tracer's own bookkeeping, outside the command
    report["bench_s"] = (t1 - t0 - import_s) + (time.perf_counter() - t2)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
