"""A fixed amount of Python work, independent of clawpoly, to gauge host speed.

bench/run.py runs it as its own process between tasks: exact Fraction row
reduction and big-int mask tests, the kinds of work clawpoly's own hot paths
do, plus the interpreter start every task pays. Its run time changes only
with the host, so the end-to-end times are rescaled by it. Prints one line
that the runner checks.
"""

from fractions import Fraction


def rank(rows, ncols):
    work = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        work[r] = [v / pv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


if __name__ == "__main__":
    n = 12
    ranks = sum(
        rank([[Fraction((i * 7 + j * 3 + k) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
              for i in range(n)], n)
        for k in range(6)
    )
    masks = [(i * 2654435761) & ((1 << 60) - 1) for i in range(20000)]
    hits = sum(1 for a in masks for b in masks[1:9] if (a & b).bit_count() > 12)
    print(f"ranks={ranks} hits={hits}")
