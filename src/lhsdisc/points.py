"""Point sets in [0,1)^d with multiset semantics and exact text round-trip.

Coordinates are binary64 and serialized with 17 significant digits so a
write/read cycle reproduces every value bit for bit.  Duplicate points are
legal and all counting operations respect multiplicity.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

HEADER = "# pointset v1"

#: Largest binary64 strictly below 1.0.
ONE_BELOW = float(np.nextafter(1.0, 0.0))


class PointSetError(ValueError):
    """Base class for point-set validation and parsing errors."""


class CoordinateOutOfRange(PointSetError):
    """A coordinate lies outside the half-open domain [0, 1)."""


class ShapeMismatch(PointSetError):
    """Coordinate data inconsistent with the declared (n_points, dim)."""


class ParseError(PointSetError):
    """Malformed pointset text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class PointSet:
    """N points in [0,1)^d, stored as a read-only (N, d) float64 array.

    Construction runs validate_pointset, so an empty array and a coordinate
    equal to 1.0, NaN or negative raise instead of reaching any kernel.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeMismatch(f"coords must be 2-dimensional, got ndim={arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)
        validate_pointset(self)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @classmethod
    def from_flat(cls, n_points: int, dim: int, values: Iterable[float]) -> "PointSet":
        flat = np.asarray(list(values), dtype=np.float64)
        if n_points <= 0 or dim <= 0:
            raise ShapeMismatch(f"n_points and dim must be positive, got {n_points} x {dim}")
        if flat.size != n_points * dim:
            raise ShapeMismatch(
                f"expected {n_points * dim} coordinates for {n_points} x {dim}, got {flat.size}"
            )
        return cls(flat.reshape(n_points, dim))


def validate_pointset(ps: PointSet) -> None:
    """Raise unless every invariant holds; names the first offending entry."""
    if ps.n_points < 1 or ps.dim < 1:
        raise ShapeMismatch(f"point set must be non-empty, got {ps.n_points} x {ps.dim}")
    coords = ps.coords
    # `not (0 <= v < 1)` also rejects NaN, which fails both comparisons.
    bad = ~((coords >= 0.0) & (coords < 1.0))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise CoordinateOutOfRange(
            f"coordinate [{row},{col}] = {float(coords[row, col])!r} outside [0, 1)"
        )


def write_pointset(ps: PointSet, f: IO[str]) -> None:
    """Serialize in pointset v1 format with 17 significant digits per value."""
    f.write(HEADER + "\n")
    f.write(f"{ps.n_points} {ps.dim}\n")
    for row in ps.coords:
        f.write(" ".join("%.16e" % v for v in row) + "\n")


def pointset_to_text(ps: PointSet) -> str:
    buf = io.StringIO()
    write_pointset(ps, buf)
    return buf.getvalue()


def _is_ignorable(line: str) -> bool:
    s = line.strip()
    return not s or s.startswith("#")


def read_pointset(f: IO[str] | Iterable[str]) -> PointSet:
    """Parse pointset v1 text; inverse of write_pointset, bit-exact."""
    lines = list(f)
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(1, f"expected header {HEADER!r}")

    # (1-based line number, line) of every line that is not blank or a comment.
    content = [(i, line) for i, line in enumerate(lines[1:], start=2)
               if not _is_ignorable(line)]
    end = len(lines) + 1
    if not content:
        raise ParseError(end, "missing '<N> <d>' line")
    lineno, line = content[0]
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(lineno, f"expected '<N> <d>', got {line.strip()!r}")
    try:
        n_points, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"expected two integers, got {line.strip()!r}") from None
    if n_points < 1:
        raise ParseError(lineno, f"N must be positive, got {n_points}")
    if dim < 1:
        raise ParseError(lineno, f"d must be positive, got {dim}")

    rows = content[1:]
    values: list[float] = []
    for lineno, line in rows[:n_points]:
        fields = line.split()
        if len(fields) != dim:
            raise ParseError(lineno, f"expected {dim} fields, got {len(fields)}")
        try:
            values.extend(float(tok) for tok in fields)
        except ValueError:
            raise ParseError(lineno, f"unparseable real number in {line.strip()!r}") from None
    if len(rows) < n_points:
        raise ParseError(end, f"expected {n_points} data rows, file ended early")
    if len(rows) > n_points:
        raise ParseError(rows[n_points][0], f"found more than the declared {n_points} data rows")

    return PointSet.from_flat(n_points, dim, values)


def pointset_from_text(text: str) -> PointSet:
    return read_pointset(text.splitlines())
