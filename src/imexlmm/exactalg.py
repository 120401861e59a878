"""Small exact linear-algebra helpers over an arbitrary field.

Elements only need ``+``, ``-``, ``*``, ``/``, unary ``-`` and a truthy
zero test, so the same routines serve both ``fractions.Fraction`` and the
quadratic extension used by the barrier module.  Sizes here never exceed
a few dozen rows; plain Gaussian elimination with full normalization is
exact and fast enough.
"""

from __future__ import annotations


class SingularMatrixError(ArithmeticError):
    pass


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly; rhs may be a vector or a matrix."""
    vector_rhs = not isinstance(rhs[0], (list, tuple))
    cols = [[r] for r in rhs] if vector_rhs else [list(r) for r in rhs]
    n = len(matrix)
    aug = [list(matrix[i]) + cols[i] for i in range(n)]
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"zero pivot in column {c}")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                factor = aug[r][c]
                aug[r] = [x - factor * y if y else x for x, y in zip(aug[r], aug[c])]
    sol = [row[n:] for row in aug]
    return [row[0] for row in sol] if vector_rhs else sol


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for t in range(1, inner):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def matvec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for t in range(1, len(v)):
            acc = acc + row[t] * v[t]
        out.append(acc)
    return out


def vandermonde_transposed(nodes):
    """Transposed Vandermonde: entry [i][j] = nodes[j]**i."""
    n = len(nodes)
    return [[nodes[j] ** i for j in range(n)] for i in range(n)]
