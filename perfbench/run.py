"""Run one workload of the diskpack benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pack-mixed --seed 1 --seconds 30 --trace 0

The last line of standard output is the JSON result. See perfbench/README.md.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "diskpack", "__init__.py")):
        print(f"error: no diskpack sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    from diskbench.runner import main as run_main

    return run_main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
