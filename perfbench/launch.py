"""Traced CLI invocation in a fresh interpreter.

    python3 perfbench/launch.py SPAWNED TRACE_FILE CLI_ARG...

Installs the tracer, then runs ``platonic.cli.main(CLI_ARGS)`` exactly as the
``platonic`` command would. ``SPAWNED`` is the parent's ``time.monotonic()``
just before it started this process. The spans, the interpreter start-up
time and the import time are written to TRACE_FILE even when the command
raises.
"""
import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    spawned, trace_file, cli_args = float(argv[0]), argv[1], argv[2:]
    t0 = time.perf_counter()
    import platonic.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.query = 0
    try:
        return platonic.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(trace_file)
        with open(trace_file + ".meta", "w") as fh:
            json.dump({"interpreter_s": STARTED - spawned, "import_s": import_s}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
