"""Pure-Python ordered-tree edit distance kernel (keyroot/forest DP).

Operates on flattened trees: postorder arrays of leftmost-leaf-descendant
indices and interned label ids. The compiled extension in _speedup.c
implements the identical recurrence; this module is the fallback and the
reference for backend-equivalence tests.
"""

from __future__ import annotations


def tree_distance(lmld1, labels1, keyroots1, lmld2, labels2, keyroots2) -> float:
    """Unit-cost distance: insert, delete and a rename between unequal labels cost 1."""
    n1 = len(lmld1)
    n2 = len(lmld2)
    if n1 == 0 or n2 == 0:
        return float(n1 + n2)

    td = [[0.0] * n2 for _ in range(n1)]
    # one reusable forest-distance buffer, sized for the full trees
    fd = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]

    for i in keyroots1:
        li = lmld1[i]
        m = i - li + 2
        for j in keyroots2:
            lj = lmld2[j]
            n = j - lj + 2

            fd[0][0] = 0.0
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1.0
            row0 = fd[0]
            for y in range(1, n):
                row0[y] = row0[y - 1] + 1.0

            for x in range(1, m):
                node1 = x + li - 1
                whole1 = lmld1[node1] == li
                fx = fd[x]
                fprev = fd[x - 1]
                for y in range(1, n):
                    node2 = y + lj - 1
                    if whole1 and lmld2[node2] == lj:
                        best = fprev[y - 1] + (labels1[node1] != labels2[node2])
                        alt = fprev[y] + 1.0
                        if alt < best:
                            best = alt
                        alt = fx[y - 1] + 1.0
                        if alt < best:
                            best = alt
                        fx[y] = best
                        td[node1][node2] = best
                    else:
                        p = lmld1[node1] - li
                        q = lmld2[node2] - lj
                        best = fd[p][q] + td[node1][node2]
                        alt = fprev[y] + 1.0
                        if alt < best:
                            best = alt
                        alt = fx[y - 1] + 1.0
                        if alt < best:
                            best = alt
                        fx[y] = best

    return td[n1 - 1][n2 - 1]
