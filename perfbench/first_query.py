"""One set-up as a fresh process pays it.

    python3 perfbench/first_query.py <workload> <seed>

Imports the CLI, warms the `lru_cache`s of `commend.field`, builds the
workload's first query and prints its argv as one JSON line.  `run.py`
starts this file in a new interpreter and times it from spawn until that
line arrives, so `setup_s` covers interpreter start-up and every module
that `commend` imports.  `run.py` also imports `setup` to prepare its own
process the same way.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def setup(workload: str, seed: int):
    """(cli module, query generator) with the field caches warm."""
    from commend import cli
    from commend.field import Coefficient

    import workloads

    for order in (1, 3, 4, 6, 12):
        z = Coefficient.root_of_unity(order)
        (z * z + z + 2).inverse()
    return cli, workloads.generate(workload, seed)


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    _cli, queries = setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(next(queries).argv), flush=True)
