"""Time one workload set-up in a fresh process and print {"setup_s": ...}.

Covers importing anisoflow (with numpy and scipy), parsing the run config,
building the grid, symbol and initial state, and the first-call warm-up,
i.e. `prepare` in workloads.py.  run.py starts it with PYTHONPATH set to
the checkout's src/.
"""

import argparse
import json
import time
from pathlib import Path

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--small", action="store_true")
    args = p.parse_args()
    workloads.WORKLOADS[args.workload](args.small).prepare(args.seed, Path(args.workdir))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
