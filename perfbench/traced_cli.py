"""Run one airylab study with spans around the public functions of its layers.

    python3 perfbench/traced_cli.py SPANS_PATH STUDY [airylab options...]

The spans are written to SPANS_PATH when the study ends; the exit code is
the study's own.
"""

import sys

from tracer import Tracer, install


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from airylab import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
