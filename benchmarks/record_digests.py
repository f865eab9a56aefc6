"""Record the output digests that ``run.py`` compares against.

    python3 benchmarks/record_digests.py 0 99

For each seed in the inclusive range, writes into ``digests.json`` the
SHA-256 of every star and complete ``RunResult.to_json()`` of the
``query`` workload and of the mined corpus bytes of ``collect-orch``.
Neither depends on the trained checkpoint or on the delays, so they are
computed with an untrained network and no delay.  Rerun it only when a
change is meant to alter those outputs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from commtopo.prunenet import NetConfig, PruneNetParams  # noqa: E402
from workloads import FULL, CollectOrchWorkload, QueryWorkload  # noqa: E402


def digests_for(seed: int) -> dict[str, str]:
    query = QueryWorkload(seed, FULL["query"], 0.0, 0.0)
    suite, pool, static = query.inputs()
    params = PruneNetParams.init(NetConfig(n_max=pool.n_max), np.random.default_rng(0))
    state = (suite.heldout_tasks, pool, params, static)
    orch = CollectOrchWorkload(seed, FULL["collect-orch"], 0.0, 0.0)
    return {
        "query": query.run_pass(state, None).values["digest"],
        "collect-orch": orch.run_pass(orch.setup(), None).values["digest"],
    }


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = HERE / "digests.json"
    table = json.loads(path.read_text())
    for seed in range(first, last + 1):
        for workload, digest in digests_for(seed).items():
            table.setdefault(workload, {})[str(seed)] = digest
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
