"""Run one roadrisk CLI stage with spans recorded, then write them out.

usage: python3 perfbench/stage.py SPANS_JSON STAGE --config RUN_JSON

The benchmark's traced runs launch each stage through this script instead of
`python -m roadrisk.cli`; the package must be importable (PYTHONPATH=src).
"""

import sys

from spans import Recorder


def main(argv: list[str]) -> int:
    recorder = Recorder()
    recorder.install()
    from roadrisk import cli

    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
