"""Set-up of one benchmark run in a fresh interpreter.

Imports the package (with its numpy and scipy imports) and writes the
workload's inputs, then prints `ready`: the point where the first operation
could start.  `run.py` times it from process start.

    python3 perfbench/setup_probe.py WORKLOAD SEED INPUT_DIR
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print("ready", flush=True)
