"""Run a command and fail when its peak resident memory passes a bound.

    python tests/peak_rss.py LIMIT_MB CMD [ARG ...]

Runs CMD, exits with its status if it fails, then prints
``CMD ...: peak RSS <MB> MB`` and exits 1 when that peak (the largest
``ru_maxrss`` among this process's children) is above LIMIT_MB.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    limit, cmd = float(argv[0]), argv[1:]
    status = subprocess.run(cmd).returncode
    if status:
        return status
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(cmd)}: peak RSS {peak:.1f} MB")
    return int(peak > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
