"""One symchar CLI request in a fresh interpreter.

    python3 child.py SRC TRACE_OUT REQUEST_ID CLI_ARG...

Imports `main` from symchar.cli under SRC (never an installed copy) and
exits with its return code.  TRACE_OUT "-" runs untraced; otherwise span
recorders are installed first and their records written to TRACE_OUT.
"""

import sys

EXIT_WRONG_SOURCE = 97


def run() -> int:
    src, trace_out, request_id, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    recorder = None
    if trace_out != "-":
        import tracer

        recorder = tracer.install(request_id)
    from symchar.cli import main

    import symchar
    from pathlib import Path

    if Path(src).resolve() not in Path(symchar.__file__).resolve().parents:
        print(f"symchar was imported from {symchar.__file__}, not {src}", file=sys.stderr)
        return EXIT_WRONG_SOURCE
    if recorder is None:
        return main(argv)
    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        recorder.probe()
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(run())
