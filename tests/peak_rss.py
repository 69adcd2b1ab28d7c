"""Run one daedyn command in a child process and bound its peak resident memory.

Usage: python tests/peak_rss.py BOUND_MB -- <daedyn args>

Prints the command with its peak RSS and the bound, and exits 1 when the peak
is above the bound; a failing command ends it with CalledProcessError.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: peak_rss.py BOUND_MB -- <daedyn args>")
    bound_mb, args = float(argv[0]), argv[2:]
    subprocess.run([sys.executable, "-m", "daedyn.cli", *args], check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(args)}: peak RSS {peak_mb:.1f} MB (bound {bound_mb:g} MB)")
    return int(peak_mb > bound_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
