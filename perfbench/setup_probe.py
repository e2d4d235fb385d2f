"""One set-up in a fresh interpreter: import avgrl.cli and run a workload's
CLI call up to its first step.

    python3 perfbench/setup_probe.py ARGV_JSON

ARGV_JSON is the workload's CLI argv as a JSON list.  A `train` or `sweep`
call goes through `avgrl.cli.main` with `--steps 0` appended, so it does all
the program does before its first step (options, problem, critic radius,
initial state and, for a sweep, the worker pool) and writes empty outputs.
A `rate` call reads its CSVs at once, so its set-up is the import and the
option resolution.  The caller times the whole process.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from avgrl import cli  # noqa: E402

if len(sys.argv) != 2:
    sys.exit("usage: setup_probe.py ARGV_JSON")
argv = json.loads(sys.argv[1])
if argv[0] == "rate":
    cli.resolve_options(cli.build_parser().parse_args(argv))
else:
    with contextlib.redirect_stdout(io.StringIO()):
        sys.exit(cli.main(argv + ["--steps", "0"]))
