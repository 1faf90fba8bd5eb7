"""Write golden.json: output digests of every op for the default seed.

    PYTHONPATH=src python3 perfbench/make_golden.py

The digests pin the bytes of the commit that defined the benchmark; the
benchmark compares against them on the default seed only.  Regenerate
only when the op lists change, and from a commit whose outputs are trusted.
"""

import json

import corpus
from run import GOLDEN, digest, run_op, setup

if __name__ == "__main__":
    table = {}
    for workload in corpus.WORKLOADS:
        cli, ops, _ = setup(workload, corpus.DEFAULT_SEED)
        table[workload] = [digest(*run_op(cli, op)[:3]) for op in ops]
    GOLDEN.write_text(json.dumps(table, indent=0) + "\n")
