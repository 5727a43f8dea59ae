"""Entry point: ``python3 querybench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` (or ``--smoke``) from the repository root.

Importing this file does nothing: the spawn worker pool re-imports the
main module in every worker, so all work happens under the
``__main__`` guard.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"querybench: no program to measure at {source / 'repro'}",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String-hash randomisation moves dict and set layouts from one
        # process to the next, which shifts query times by a few
        # percent per process.  Re-run this same process pinned.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.path[:0] = [str(source), str(ROOT)]
    from querybench.harness import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
