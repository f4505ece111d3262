"""Toroidal mesh model: dimensions, vertex sets as bitmasks, and adjacency.

The graph is the product of two cycles: rows wrap modulo ``n`` and columns
wrap modulo ``m``.  Vertices carry 1-based coordinates ``(i, j)`` with
``1 <= i <= n`` and ``1 <= j <= m``; internally each vertex maps to the
row-major slot ``(i - 1) * m + (j - 1)`` and sets of vertices are single
Python integers used as bitmasks.  Everything here is immutable so values
can be shared, hashed and cached freely.

A graph holds no table per slot, only three masks of the order's bits,
so building one takes no time per vertex and caching it is cheap.  One
slot's neighbours come from slot arithmetic (`TorusGraph.around`), and
a whole set's four direction images are four shifts of its mask
(`TorusGraph.images`), whose union is its neighbourhood
(`TorusGraph.neighbourhood`), so checking a set costs time and memory
linear in the grid's order and the validators need no mask per vertex.
Sets go to and from slot lists through one bit string (`set_slots`,
`VertexSet.from_slots`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    InstanceTooLargeError,
    InvalidDimensionsError,
    InvalidInputError,
    OutOfRangeError,
)

MIN_SIDE = 3
# the most vertices a grid may have: it bounds the projection cascade's
# work, which builds 201x201 from 204x204 (a 201x201 total witness takes
# about 0.5 s on one core of a 2-core Xeon)
MAX_ORDER = 204 * 204


def set_slots(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending, in time linear in
    the mask's length."""
    bits = bin(mask)[:1:-1]
    out = []
    s = bits.find("1")
    while s >= 0:
        out.append(s)
        s = bits.find("1", s + 1)
    return out


class VertexId(NamedTuple):
    """1-based grid coordinate of a vertex."""

    i: int
    j: int


@dataclass(frozen=True, order=True)
class TorusDims:
    """Validated dimensions of a toroidal mesh: both sides at least
    MIN_SIDE and at most MAX_ORDER vertices, checked before anything of
    the grid's size is built."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < MIN_SIDE or self.m < MIN_SIDE:
            raise InvalidDimensionsError(
                f"both sides must be >= {MIN_SIDE}, got {self.n}x{self.m}"
            )
        if self.n * self.m > MAX_ORDER:
            raise InstanceTooLargeError(
                f"{self.n}x{self.m} has {self.n * self.m} vertices, above the cap of {MAX_ORDER}"
            )

    @property
    def order(self) -> int:
        return self.n * self.m

    def check(self, v: VertexId) -> None:
        if not (1 <= v.i <= self.n and 1 <= v.j <= self.m):
            raise OutOfRangeError(f"vertex {tuple(v)} outside {self.n}x{self.m} grid")

    def wrap(self, i: int, j: int) -> VertexId:
        """Reduce arbitrary integer coordinates onto the torus."""
        return VertexId((i - 1) % self.n + 1, (j - 1) % self.m + 1)

    def slot(self, v: VertexId) -> int:
        self.check(v)
        return (v.i - 1) * self.m + (v.j - 1)

    def vertex(self, slot: int) -> VertexId:
        if not (0 <= slot < self.order):
            raise OutOfRangeError(f"slot {slot} outside 0..{self.order - 1}")
        return VertexId(slot // self.m + 1, slot % self.m + 1)

    def transposed(self) -> "TorusDims":
        return TorusDims(self.m, self.n)


@dataclass(frozen=True)
class VertexSet:
    """Immutable set of vertices of one grid, stored as a bitmask."""

    dims: TorusDims
    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.dims.order:
            raise InvalidInputError("mask has bits outside the grid")

    @classmethod
    def from_vertices(cls, dims: TorusDims, vertices: Iterable[tuple[int, int]]) -> "VertexSet":
        n, m = dims.n, dims.m

        def slots() -> Iterator[int]:
            for i, j in vertices:
                if not (1 <= i <= n and 1 <= j <= m):
                    raise OutOfRangeError(f"vertex {(i, j)} outside {n}x{m} grid")
                yield (i - 1) * m + j - 1

        return cls.from_slots(dims, slots())

    @classmethod
    def from_slots(cls, dims: TorusDims, slots: Iterable[int]) -> "VertexSet":
        order = dims.order
        bits = bytearray(b"0") * order  # bit s at index -1 - s
        for s in slots:
            if not (0 <= s < order):
                raise OutOfRangeError(f"slot {s} outside grid")
            bits[-1 - s] = ord("1")
        return cls(dims, int(bits, 2))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, v: tuple[int, int]) -> bool:
        return bool(self.mask >> self.dims.slot(VertexId(*v)) & 1)

    def __iter__(self) -> Iterator[VertexId]:
        """Vertices in slot (row-major) order."""
        m = self.dims.m
        for s in set_slots(self.mask):
            yield VertexId(s // m + 1, s % m + 1)

    def rotated(self, di: int, dj: int) -> "VertexSet":
        """Shift every vertex by (di, dj) with wraparound: the rows move by
        whole blocks of m bits, and in every row the columns that would pass
        the last one wrap round to the first."""
        n, m = self.dims.n, self.dims.m
        order = n * m
        full = (1 << order) - 1
        r, c = di % n * m, dj % m
        mask = (self.mask << r | self.mask >> (order - r)) & full
        # columns below m - c in every row; full / (2^m - 1) is the sum of 2^rm
        stay = full // ((1 << m) - 1) * ((1 << (m - c)) - 1)
        return VertexSet(self.dims, (mask & stay) << c | (mask & ~stay) >> (m - c))

    def transposed(self) -> "VertexSet":
        """The same set on the grid with rows and columns swapped: slot
        s = im + j goes to jn + i."""
        n, m = self.dims.n, self.dims.m
        return VertexSet.from_slots(
            self.dims.transposed(), (s % m * n + s // m for s in set_slots(self.mask))
        )

    def pairs(self) -> list[tuple[int, int]]:
        """Coordinates as sorted (i, j) tuples, in slot order."""
        return [tuple(v) for v in self]


@dataclass(frozen=True)
class BlockRange:
    """A cyclic block of consecutive rows: ``width`` rows starting at ``start``."""

    start: int
    width: int


class TorusGraph:
    """One toroidal mesh, held as its dims and three masks of the order's
    bits: the full grid and its first and last columns.

    It keeps no table per slot: `around` computes one slot's neighbours
    by slot arithmetic, and `neighbourhood` a whole set's by four shifts
    of its mask, so a cached graph costs O(nm) bits.  Instances are built
    once per dimension pair and cached, so they must never be mutated.
    """

    def __init__(self, dims: TorusDims):
        self.dims = dims
        self.full_mask = (1 << dims.order) - 1
        # bit rm of every row r: (2^nm - 1) / (2^m - 1) is the sum of 2^rm
        self._first_column = self.full_mask // ((1 << dims.m) - 1)
        self._last_column = self._first_column << (dims.m - 1)

    def around(self, s: int) -> tuple[int, int, int, int]:
        """The four neighbour slots of slot s, ascending."""
        m, order = self.dims.m, self.dims.order
        c = s % m
        if c == 0:
            a, b = s + 1, s + m - 1
        elif c == m - 1:
            a, b = s - m + 1, s - 1
        else:
            a, b = s - 1, s + 1
        if s < m:
            return a, b, s + m, s + order - m
        if s >= order - m:
            return s + m - order, s - m, a, b
        return s - m, a, b, s + m

    def images(self, mask: int) -> tuple[int, int, int, int]:
        """The slots whose neighbour a row up, a row down, a column left and
        a column right is in the mask: the ring of slots rotated a row down
        and a row up, and each row shifted a column right and left with its
        end column wrapped round."""
        m, order, full = self.dims.m, self.dims.order, self.full_mask
        first, last = self._first_column, self._last_column
        return (
            (mask << m | mask >> (order - m)) & full,
            (mask >> m | mask << (order - m)) & full,
            (mask & ~last) << 1 | (mask & last) >> (m - 1),
            (mask & ~first) >> 1 | (mask & first) << (m - 1),
        )

    def neighbourhood(self, mask: int) -> int:
        """The slots with a neighbour in the mask: the union of its images."""
        up, down, left, right = self.images(mask)
        return up | down | left | right

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted slot pairs, lexicographically ordered."""
        return [(s, t) for s in range(self.dims.order) for t in self.around(s) if s < t]


# Unbounded on purpose: a graph holds O(nm) bits and no per-slot table,
# so even the cascade's every intermediate torus stays small.
@functools.lru_cache(maxsize=None)
def make_torus(n: int, m: int) -> TorusGraph:
    return TorusGraph(TorusDims(n, m))


def excise_block(g: TorusGraph, block: BlockRange) -> tuple[TorusGraph, dict[int, int]]:
    """Remove a cyclic block of rows and stitch the cut back together.

    Returns the smaller torus together with a map from surviving old row
    index to new row index.  The stitched adjacency is checked edge for
    edge against a freshly built torus of the reduced size, so the result
    is the genuine smaller mesh and not merely something of the right size.
    """
    n, m = g.dims.n, g.dims.m
    if not (1 <= block.start <= n):
        raise OutOfRangeError(f"block start {block.start} outside 1..{n}")
    if not (1 <= block.width <= n - MIN_SIDE):
        raise InvalidInputError(
            f"block width {block.width} must leave at least {MIN_SIDE} rows"
        )
    removed = {(block.start - 1 + k) % n + 1 for k in range(block.width)}
    first_kept = (block.start - 1 + block.width) % n + 1
    ring_map: dict[int, int] = {}
    row = first_kept
    for new_i in range(1, n - block.width + 1):
        ring_map[row] = new_i
        row = row % n + 1

    small = make_torus(n - block.width, m)
    stitched = set()
    order = sorted(ring_map, key=ring_map.get)
    for idx, old_i in enumerate(order):
        succ = order[(idx + 1) % len(order)]
        for j in range(1, m + 1):
            a = small.dims.slot(VertexId(ring_map[old_i], j))
            stitched.add(tuple(sorted((a, small.dims.slot(VertexId(ring_map[succ], j))))))
            b = small.dims.slot(small.dims.wrap(ring_map[old_i], j + 1))
            stitched.add(tuple(sorted((a, b))))
    if sorted(stitched) != small.edges():
        raise InvalidInputError("stitched graph is not the smaller torus")
    return small, ring_map


def map_set(d: VertexSet, small: TorusGraph, ring_map: dict[int, int]) -> VertexSet:
    """Carry a vertex set across an excision; rows being removed must be absent."""
    moved = []
    for v in d:
        if v.i not in ring_map:
            raise InvalidInputError(f"vertex {tuple(v)} lies in the removed block")
        moved.append((ring_map[v.i], v.j))
    return VertexSet.from_vertices(small.dims, moved)
