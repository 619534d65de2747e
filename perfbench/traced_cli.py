"""Run one ``mlq`` CLI command under the layer trace.

    python3 perfbench/traced_cli.py TRACE.json COMMAND --config CFG --out DIR --jobs 1

Installs the wrappers of ``layer_trace``, runs ``mlq.cli.main`` with the
remaining arguments, writes the spans to TRACE.json when the command ends
and exits with the command's exit code.  ``src`` must be on PYTHONPATH.
"""

import sys

import layer_trace


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layer_trace.Tracer()
    tracer.install()
    import mlq.cli

    try:
        return mlq.cli.main(argv)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
