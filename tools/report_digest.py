"""Digests of the seeded benchmark streams' reports, for checking that a
change leaves every report byte as it was.

Run from anywhere, with no arguments:

    python3 tools/report_digest.py

For each stream it runs the queries in order through `commend.cli.main`
in-process and prints one line: the stream, the number of queries and the
sha256 of their (argv, exit code, stdout) triples.  Run it on two checkouts
and compare the lines.  The streams come from `perfbench/workloads.py`,
which this script only imports:

- `plane`, seed 1, the first 3,000 queries;
- `plane-cyclo`, seed 1, the first 300 queries;
- `p1-classify` and `grid-search`, seed 1, the whole stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STREAMS = (("plane", 3000), ("plane-cyclo", 300), ("p1-classify", None),
           ("grid-search", None))
SEED = 1


def run(cli, argv):
    """(exit code, stdout) of one in-process call; a raised exception is
    recorded by its class name in place of the exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is part of the digest, not a tool bug
        code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


def digest(cli, workloads, workload: str, limit):
    """(query count, hex sha256) of one stream."""
    sha, count = hashlib.sha256(), 0
    for query in itertools.islice(workloads.generate(workload, SEED), limit):
        code, stdout = run(cli, query.argv)
        sha.update(json.dumps([query.argv, code, stdout]).encode() + b"\n")
        count += 1
    return count, sha.hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    from commend import cli

    for workload, limit in STREAMS:
        count, hexdigest = digest(cli, workloads, workload, limit)
        print(f"{workload} seed {SEED}: {count} queries sha256 {hexdigest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
