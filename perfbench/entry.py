"""Run the gramsem CLI as its console script does, then report the peak RSS.

Usage: ``python3 perfbench/entry.py <gramsem arguments>``

The process's peak resident set size (``VmHWM``, in KiB) goes to standard
error as a last line ``peak_rss_kib<TAB>N``.  It is read from the process
itself because a child's ``ru_maxrss`` also counts the memory of the parent
it was started from.
"""

import sys

from gramsem.cli import main


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        print(f"peak_rss_kib\t{peak_rss_kib()}", file=sys.stderr)
    sys.exit(code)
