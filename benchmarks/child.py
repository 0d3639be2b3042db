"""One `cnplab run` in a fresh process, timed from inside.

Usage: child.py SRC_DIR SPAWN_TIME CONFIG REPORT TIMING [spans|peaks TRACE]

Does what `cnplab run CONFIG --out REPORT` does (read the config, parse it,
run the suites, write the report) through the same public functions, and
records monotonic timestamps around them.  SPAWN_TIME is the parent's
time.monotonic() just before it started this process; CLOCK_MONOTONIC is
system-wide, so set-up time spans process start, interpreter start-up,
`import cnplab` with numpy, and parse_config.  With `spans` or `peaks`, the
matching wrappers of tracer.py are installed after the import and what they
record is written to TRACE.  A REPORT of "-" stops after parse_config: a
set-up probe.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, spawn, config, report_path, timing_path = argv[:5]
    mode, trace_path = argv[5:7] if len(argv) > 5 else (None, None)
    import cnplab
    from cnplab import cli

    # never measure some other installed copy of the program
    if not os.path.abspath(cnplab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported cnplab from {cnplab.__file__}, not from {src}", file=sys.stderr)
        return 3
    rec = None
    if mode is not None:
        import tracer

        rec = tracer.Recorder()
        {"spans": tracer.install, "peaks": tracer.install_peaks}[mode](rec)
    with open(config) as fh:
        raw = json.load(fh)
    cfg = cli.parse_config(raw, base_dir=os.path.dirname(os.path.abspath(config)))
    t_parsed = time.monotonic()
    timing = {"spawn": float(spawn), "parsed": t_parsed}
    if report_path != "-":
        report = cli.run(cfg)
        timing["ran"] = time.monotonic()
        with open(report_path, "w") as fh:
            fh.write(cli.dump_report(report) + "\n")
    timing["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec is not None:
        rec.dump(trace_path)
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
