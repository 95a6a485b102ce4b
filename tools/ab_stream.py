"""Same-process A/B timing of two checkouts on one seeded query stream.

    python3 tools/ab_stream.py PARENT CHANGE --workload W [--seed N] [--limit N]

PARENT and CHANGE are checkout roots.  Each one's `src/commend` is loaded
under its own package name (`commend_parent`, `commend_change`), so both
run in this one process.  Every query of the stream goes through both
sides' `cli.main`, the side that runs first alternating from query to query,
so a slow spell of a shared machine falls on both sides alike; separate
processes timed one after the other swing far more than the difference
being measured.

It prints, per query kind, each side's summed time in `cli.main` and the
ratio parent / change, then the totals and each side's query count and
sha256 of its (argv, exit code, stdout) triples, as `report_digest.py`
computes them; equal digests mean byte-identical reports.  The stream comes
from `perfbench/workloads.py`, which this script only imports, built with
the `commend` of the checkout that holds this script.  Streams that do not
end (such as `plane`) need --limit.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import importlib.util
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_cli(root: Path, name: str):
    """The `cli` module of root's `src/commend`, loaded as package name."""
    src = root / "src" / "commend"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                    str(ROOT / "tools")]
    import workloads
    from report_digest import run

    clis = {side: load_cli(getattr(args, side).resolve(), f"commend_{side}")
            for side in SIDES}
    times = {side: collections.Counter() for side in SIDES}
    shas = {side: hashlib.sha256() for side in SIDES}
    count = 0
    stream = workloads.generate(args.workload, args.seed)
    for query in itertools.islice(stream, args.limit):
        order = SIDES if count % 2 == 0 else SIDES[::-1]
        for side in order:
            start = time.perf_counter()
            code, stdout = run(clis[side], query.argv)
            times[side][query.kind] += time.perf_counter() - start
            shas[side].update(json.dumps([query.argv, code, stdout]).encode()
                              + b"\n")
        count += 1

    print(f"{args.workload} seed {args.seed}: {count} queries")
    print(f"{'kind':<24}{'parent_s':>10}{'change_s':>10}{'ratio':>8}")
    rows = sorted(times["parent"]) + ["total"]
    for kind in rows:
        got = {side: (sum(times[side].values()) if kind == "total"
                      else times[side][kind]) for side in SIDES}
        ratio = got["parent"] / got["change"] if got["change"] else float("nan")
        print(f"{kind:<24}{got['parent']:>10.3f}{got['change']:>10.3f}"
              f"{ratio:>8.3f}")
    for side in SIDES:
        print(f"{side}: {count} queries sha256 {shas[side].hexdigest()}")
    same = shas["parent"].digest() == shas["change"].digest()
    print("reports identical" if same else "REPORTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
