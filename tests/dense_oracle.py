"""Dense Gauss-Jordan elimination, kept only as the reference that the
sparse engine in `crossedext.linalg.rref` is tested against."""
from crossedext.linalg import Matrix


def dense_rref(m: Matrix):
    """Reduced row echelon form by dense row operations.
    Returns (rref matrix, pivot column tuple)."""
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = m.field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.field, rows, cols=nc), tuple(pivots)
