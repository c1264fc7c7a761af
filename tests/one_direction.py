"""The pairs of one direction and one region, read from a one-row call of
the energies' chunk tables: the view of the pair rule that the property
tests compare with their oracles."""

import numpy as np

from nlgriffith.domain import _interp_row
from nlgriffith.energy import _chunks, _slopes


class OneDirection:
    """The pairs ``(x, x + eps xi)`` of ``region`` for the direction ``xi``:
    the range box ``box`` of shape ``shape``, its columns' grid indices on
    the earlier axes (``index``) and their runs ``[lo, hi)`` of last-axis
    indices, and the partners' ``(base, top, frac)`` interpolation row per
    axis (``line``)."""

    def __init__(self, grid, region, xi, eps):
        self.grid, self.xi = grid, np.asarray(xi, dtype=float)
        ((_, (cols,)),) = _chunks(grid, (region,), self.xi[None, :], eps)
        self.box = tuple(map(slice, cols.first[0].tolist(), cols.stop[0].tolist()))
        self.shape = tuple(sl.stop - sl.start for sl in self.box)
        self.index, self.lo, self.hi = cols.index, cols.lo, cols.hi
        self.line = [tuple(a[0] for a in _interp_row(axis, grid.h, p)) for axis, p in zip(grid.axes, cols.partners)]

    @property
    def rows(self) -> list:
        """Per axis, the partners' ``(base, top, 1 - frac, frac)`` over the box, the weights broadcast along it."""
        rows = []
        for d, ((base, top, frac), sl) in enumerate(zip(self.line, self.box)):
            col = (-1,) + (1,) * (self.grid.dim - 1 - d)
            rows.append((base[sl], top[sl], (1.0 - frac[sl]).reshape(col), frac[sl].reshape(col)))
        return rows

    def slopes(self, comps) -> np.ndarray:
        """The sampled slopes over the range box, flat in C order (``_slopes``); none on an empty box."""
        if 0 in self.shape:
            return np.zeros(0)
        return _slopes(comps, self.grid, self.xi, self.line, self.box, [np.empty(0)] * 4)

    def kept(self) -> np.ndarray:
        """The kept pairs, the runs on the columns of the range box, as a flat mask over the box in C order."""
        kept = np.zeros(self.shape, dtype=bool)
        last = self.box[-1].start
        for c, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            column = tuple(int(i[c]) - sl.start for i, sl in zip(self.index, self.box))
            for a, b in zip(lo, hi):
                kept[column + (slice(a - last, b - last),)] = True
        return kept.reshape(-1)
