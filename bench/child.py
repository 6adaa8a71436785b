"""Run one `trigan` CLI invocation in this process and record its timings.

    python3 child.py RESULT.json MODULE:ATTR|- SPANS.json|- -- <trigan argv>

An untraced run (SPANS is `-`) executes the library unmodified except for
one set-up marker: MODULE.ATTR is replaced by a shim that records the
monotonic time of its first call, puts the original back and calls it.
A traced run (MARKER is `-`) installs the tracer around the whole
invocation and writes the span table to SPANS once the CLI returns.

RESULT receives the marker time, the end time, the peak resident set size
and the file the library was imported from. The peak is VmHWM, the
high-water mark of this program image; `ru_maxrss` would also count the
parent's resident set, which Linux carries across fork and exec.
`time.monotonic` reads the system-wide monotonic clock, so the parent can
subtract its own readings.
The exit code is the CLI's.
"""

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _peak_rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1])


def _install_marker(spec: str, stamp: dict) -> None:
    module_name, attr = spec.split(":")
    module = importlib.import_module(module_name)
    original = getattr(module, attr)

    def first_call(*args, **kwargs):
        stamp["t_marker"] = time.monotonic()
        setattr(module, attr, original)
        return original(*args, **kwargs)

    setattr(module, attr, first_call)


def main(argv: list) -> int:
    result_path, marker, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT MARKER SPANS -- <trigan argv>")
    record = {"t_start": T_START, "t_marker": None}
    from trigan import cli

    if spans_path == "-":
        _install_marker(marker, record)
        code = cli.main(cli_argv)
    else:
        from tracer import Tracer
        with Tracer() as tracer:
            code = cli.main(cli_argv)
    record["t_end"] = time.monotonic()
    record["peak_rss_kb"] = _peak_rss_kb()
    record["trigan_file"] = cli.__file__
    if spans_path != "-":
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
