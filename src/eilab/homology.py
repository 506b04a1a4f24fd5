"""Exact reduced homology of a simplicial complex, its faces given as
vertex masks.

Each boundary map is brought to a diagonal by unimodular integer steps
(Euclid on rows and columns).  The rank over characteristic ``c`` is the
number of diagonal entries that ``c`` does not divide, so one exact
integer path serves every field, and a characteristic dividing none of the
entries other than 1 (the torsion) has the char-0 ranks.  Floating point
is never used, and every complex is checked against its Euler
characteristic.  Nothing here knows of graphs or of the oracle's packed
subset table.
"""

from __future__ import annotations


def homology_from_masks(by_dim: list[list[int]], char: int) -> tuple[tuple[int, ...], set[int]]:
    """Reduced homology dims (degrees 0..maxdim) from faces given as masks,
    and the diagonal entries above 1 (as absolute values) of the boundary
    maps' diagonal forms.

    ``by_dim[d]`` lists the d-dimensional faces.  Raises if the alternating
    sum of the computed dims disagrees with the reduced Euler characteristic
    -- a built-in self-check on every evaluated complex.
    """
    if not by_dim or not by_dim[0]:
        return (), set()
    maxdim = len(by_dim) - 1
    ranks = [0] * (maxdim + 2)
    ranks[0] = 1  # the augmentation map onto the empty face
    torsion: set[int] = set()
    for d in range(1, maxdim + 1):
        diagonal = _diagonal(_boundary_columns(by_dim[d - 1], by_dim[d]))
        ranks[d] = sum(1 for p in diagonal if char == 0 or p % char)
        torsion.update(p for p in diagonal if p > 1)
    dims = tuple(
        len(by_dim[t]) - ranks[t] - ranks[t + 1] for t in range(maxdim + 1)
    )
    euler = sum((-1) ** t * len(by_dim[t]) for t in range(maxdim + 1)) - 1
    if sum((-1) ** t * v for t, v in enumerate(dims)) != euler:
        raise AssertionError("homology dims violate the Euler characteristic")
    if any(v < 0 for v in dims):
        raise AssertionError("negative homology dimension: rank bookkeeping broken")
    return dims, torsion


def _boundary_columns(rows_faces: list[int], cols_faces: list[int]) -> list[dict[int, int]]:
    """The boundary map from ``cols_faces`` to ``rows_faces`` as sparse
    signed columns ``{row: +1 or -1}``."""
    row_index = {m: i for i, m in enumerate(rows_faces)}
    cols = []
    for face in cols_faces:
        col = {}
        sign = 1
        m = face
        while m:  # ascending vertices carry the alternating sign
            low = m & -m
            col[row_index[face ^ low]] = sign
            sign = -sign
            m ^= low
        cols.append(col)
    return cols


def _subtract(col: dict[int, int], other: dict[int, int], f: int) -> None:
    """``col -= f * other``, on sparse columns, dropping zeros."""
    for rr, x in other.items():
        y = col.get(rr, 0) - f * x
        if y:
            col[rr] = y
        else:
            del col[rr]


def _diagonal(cols: list[dict[int, int]]) -> list[int]:
    """The absolute values of a diagonal form of the integer matrix with
    sparse columns ``cols``, which are updated in place.

    The matrix is brought to a diagonal by unimodular row and column steps:
    an entry of least absolute value divides its row and its column by
    Euclid, and when every remainder is zero its row and column are clear,
    so it leaves as one diagonal entry.  Otherwise a remainder is smaller
    and becomes the next pivot.  The steps are invertible over the integers
    and so over every field: the rank over characteristic ``c`` is the
    number of entries that ``c`` does not divide, and every entry counts at
    ``c = 0``.
    """
    diagonal = []
    while cols := [col for col in cols if col]:
        col, r = min(((col, r) for col in cols for r in col), key=lambda e: abs(e[0][e[1]]))
        p = col[r]
        clear = True
        for col2 in cols:  # column steps leave remainders in row r
            if col2 is not col and r in col2:
                _subtract(col2, col, col2[r] // p)
                clear = clear and r not in col2
        for r2 in [x for x in col if x != r]:  # row steps leave them in col
            f = col[r2] // p
            for col2 in cols:
                if r in col2:
                    y = col2.get(r2, 0) - f * col2[r]
                    if y:
                        col2[r2] = y
                    else:
                        del col2[r2]
            clear = clear and r2 not in col
        if clear:
            diagonal.append(abs(p))
            col.clear()
    return diagonal
