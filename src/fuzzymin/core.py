"""Godel-algebra kernel: exact truth degrees plus sparse fuzzy sets and relations.

Every algorithm in this package only compares, mins and maxes degrees, so
degrees are stored as scaled integers (nine fractional decimal digits).
That keeps comparisons exact and makes every tie deterministic; no floating
point ever enters the algebra.

Sets and relations hold those integers themselves: a set maps each element
to its scaled degree, and a relation keeps one such dict per source, keyed
by target.  The garbage collector does not track a dict of ints, so an
interpretation with m facts adds objects to every collection per set and
relation, not per fact.  ``Degree`` objects exist only at the API boundary:
``value``, ``successors``, ``items`` and ``degrees`` hand out one shared
``Degree`` per distinct value.  The other modules read the integers.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

SCALE = 10 ** 9

_DECIMAL_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")

DegreeLike = Union["Degree", int, float, str]


class Degree:
    """A truth value in [0, 1] with exact fixed-point semantics.

    Accepts another Degree, an int (0 or 1), a decimal string with at most
    nine fractional digits, or a float that is the binary rounding of such a
    decimal.  Two degrees written as equal decimal literals always compare
    equal.
    """

    __slots__ = ("scaled",)

    def __init__(self, value: DegreeLike):
        if isinstance(value, Degree):
            scaled = value.scaled
        elif isinstance(value, int) and not isinstance(value, bool):
            scaled = value * SCALE
        elif isinstance(value, float):
            if not 0.0 <= value <= 1.0:  # also rejects nan and the infinities
                raise ValueError(f"degree out of [0,1]: {value!r}")
            scaled = round(value * SCALE)
            if scaled / SCALE != value:
                raise ValueError(f"float is not a decimal with at most 9 fractional digits: {value!r}")
        elif isinstance(value, str):
            scaled = _parse_scaled(value)
        else:
            raise TypeError(f"cannot build a degree from {value!r}")
        if not 0 <= scaled <= SCALE:
            raise ValueError(f"degree out of [0,1]: {value!r}")
        self.scaled = scaled

    @classmethod
    def from_scaled(cls, scaled: int) -> "Degree":
        d = cls.__new__(cls)
        if not 0 <= scaled <= SCALE:
            raise ValueError(f"scaled degree out of range: {scaled}")
        d.scaled = scaled
        return d

    def __eq__(self, other) -> bool:
        return isinstance(other, Degree) and self.scaled == other.scaled

    def __lt__(self, other: "Degree") -> bool:
        return self.scaled < other.scaled

    def __le__(self, other: "Degree") -> bool:
        return self.scaled <= other.scaled

    def __gt__(self, other: "Degree") -> bool:
        return self.scaled > other.scaled

    def __ge__(self, other: "Degree") -> bool:
        return self.scaled >= other.scaled

    def __hash__(self) -> int:
        return hash(self.scaled)

    def __str__(self) -> str:
        whole, frac = divmod(self.scaled, SCALE)
        if frac == 0:
            return str(whole)
        return f"{whole}.{frac:09d}".rstrip("0")

    def __repr__(self) -> str:
        return f"Degree('{self}')"

    @property
    def is_zero(self) -> bool:
        return self.scaled == 0

    @property
    def is_one(self) -> bool:
        return self.scaled == SCALE


def _parse_scaled(text: str) -> int:
    m = _DECIMAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed degree literal: {text!r}")
    whole, frac = m.group(1), m.group(2) or ""
    if len(frac) > 9:
        raise ValueError(f"degree literal has more than 9 fractional digits: {text!r}")
    return int(whole) * SCALE + int(frac.ljust(9, "0") or "0")


ZERO = Degree(0)
ONE = Degree(1)


def tnorm(a: Degree, b: Degree) -> Degree:
    """Godel t-norm: min."""
    return a if a <= b else b


def residuum(a: Degree, b: Degree) -> Degree:
    """Godel residuum: 1 when a <= b, otherwise b."""
    return ONE if a <= b else b


def biresiduum(a: Degree, b: Degree) -> Degree:
    """Godel biresiduum: 1 when a = b, otherwise min(a, b)."""
    if a == b:
        return ONE
    return a if a < b else b


def inf_all(degrees: Iterable[Degree]) -> Degree:
    """Infimum of a finite set of degrees; 1 for the empty set."""
    best = ONE
    for d in degrees:
        if d < best:
            best = d
    return best


# the ``Degree`` handed out for a scaled value at the API boundary: one object
# per distinct value among the 4096 read most recently, whoever reads it
_shared_degree = functools.lru_cache(maxsize=4096)(Degree.from_scaled)


class FuzzySet:
    """Sparse fuzzy subset of a finite indexed carrier: ``_entries`` maps each
    element of positive degree to its scaled degree.  The constructor checks
    every entry, ``_trusted`` none."""

    __slots__ = ("size", "_entries")

    def __init__(self, size: int, entries: Mapping[int, DegreeLike] | Iterable[Tuple[int, DegreeLike]] = ()):
        if size < 0:
            raise ValueError("carrier size must be non-negative")
        self.size = size
        data: Dict[int, int] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for key, deg in pairs:
            if not 0 <= key < size:
                raise ValueError(f"element index {key} outside carrier of size {size}")
            scaled = deg.scaled if isinstance(deg, Degree) else Degree(deg).scaled
            if not scaled:
                raise ValueError(f"zero entries must be omitted (element {key})")
            if key in data:
                raise ValueError(f"duplicate entry for element {key}")
            data[key] = scaled
        self._entries = data

    @classmethod
    def _trusted(cls, size: int, entries: Dict[int, int]) -> "FuzzySet":
        """Wrap entries that are valid by construction: positive scaled
        degrees by index inside the carrier.  Takes ownership of the dict."""
        fset = cls.__new__(cls)
        fset.size = size
        fset._entries = entries
        return fset

    def value(self, key: int) -> Degree:
        return _shared_degree(self._entries.get(key, 0))

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))

    def items(self) -> Iterator[Tuple[int, Degree]]:
        return iter([(key, _shared_degree(s)) for key, s in sorted(self._entries.items())])

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuzzySet)
            and self.size == other.size
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.size, tuple(sorted(self._entries.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{v}" for k, v in self.items())
        return f"FuzzySet({self.size}, {{{body}}})"


# A relation as successor rows of scaled degrees: row i maps each target j of
# a positive entry to its scaled degree, in ascending order of j.  The rows
# without entries share one dict, so no reader may write to a row.
ScaledRows = List[Dict[int, int]]
_NO_ENTRIES: Dict[int, int] = {}


class FuzzyRelation:
    """Sparse fuzzy relation between two finite indexed carriers.

    ``_fwd`` holds the relation as ``ScaledRows``, one row per source; the
    modules of this package read it directly and never write to it.  The
    constructor checks every entry; ``_trusted`` builds the same object from
    rows that are valid by construction without checking them.  Relations
    are immutable, so the sorted degree set is computed once, on first use.
    """

    __slots__ = ("rows", "cols", "_fwd", "_degrees")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[Tuple[int, int], DegreeLike] | Iterable[Tuple[Tuple[int, int], DegreeLike]] = (),
    ):
        if rows < 0 or cols < 0:
            raise ValueError("carrier sizes must be non-negative")
        fwd: Dict[int, Dict[int, int]] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), deg in pairs:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"pair ({i},{j}) outside carrier {rows}x{cols}")
            scaled = deg.scaled if isinstance(deg, Degree) else Degree(deg).scaled
            if not scaled:
                raise ValueError(f"zero entries must be omitted (pair ({i},{j}))")
            row = fwd.setdefault(i, {})
            if j in row:
                raise ValueError(f"duplicate entry for pair ({i},{j})")
            row[j] = scaled
        self._init(rows, cols, fwd.items())

    @classmethod
    def _trusted(cls, rows: int, cols: int, fwd: Iterable[Tuple[int, Dict[int, int]]]) -> "FuzzyRelation":
        """Wrap rows that are valid by construction: (source, row) pairs, no
        source twice, each row a dict of positive scaled degrees by target,
        all inside the carriers.  Takes ownership of the rows."""
        rel = cls.__new__(cls)
        rel._init(rows, cols, fwd)
        return rel

    def _init(self, rows: int, cols: int, fwd: Iterable[Tuple[int, Dict[int, int]]]) -> None:
        """The row builder both constructors share: sorts each row by target."""
        out = [_NO_ENTRIES] * rows
        for i, row in fwd:
            if len(row) > 1 and list(row) != sorted(row):
                row = {j: row[j] for j in sorted(row)}
            if row:
                out[i] = row
        self.rows = rows
        self.cols = cols
        self._fwd: ScaledRows = out
        self._degrees: Optional[Tuple[Degree, ...]] = None

    def _row(self, i: int) -> Dict[int, int]:
        return self._fwd[i] if 0 <= i < self.rows else _NO_ENTRIES

    def value(self, i: int, j: int) -> Degree:
        return _shared_degree(self._row(i).get(j, 0))

    def successors(self, i: int) -> Tuple[Tuple[int, Degree], ...]:
        return tuple([(j, _shared_degree(s)) for j, s in self._row(i).items()])

    def items(self) -> Iterator[Tuple[Tuple[int, int], Degree]]:
        return iter([((i, j), _shared_degree(s)) for i, row in enumerate(self._fwd) for j, s in row.items()])

    def support_size(self) -> int:
        return sum(map(len, self._fwd))

    __len__ = support_size

    def sources(self) -> Tuple[int, ...]:
        return tuple([i for i, row in enumerate(self._fwd) if row])

    def degrees(self) -> Tuple[Degree, ...]:
        if self._degrees is None:
            self._degrees = tuple(map(_shared_degree, sorted({s for row in self._fwd for s in row.values()})))
        return self._degrees

    def inverse(self) -> "FuzzyRelation":
        cols: Dict[int, Dict[int, int]] = {}
        for i, row in enumerate(self._fwd):
            for j, s in row.items():
                cols.setdefault(j, {})[i] = s
        return FuzzyRelation._trusted(self.cols, self.rows, cols.items())

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuzzyRelation)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._fwd == other._fwd
        )

    def __hash__(self):
        pairs = tuple([((i, j), s) for i, row in enumerate(self._fwd) for j, s in row.items()])
        return hash((self.rows, self.cols, pairs))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}):{d}" for (i, j), d in self.items())
        return f"FuzzyRelation({self.rows}x{self.cols}, {{{body}}})"


def identity_relation(n: int) -> FuzzyRelation:
    return FuzzyRelation(n, n, {(i, i): ONE for i in range(n)})


def _maxmin_rows(left: ScaledRows, right: ScaledRows) -> ScaledRows:
    """Max-min product of two relations in row form, O(sum over entries (i, k)
    of left of the length of right's row k).  The rows come out unsorted."""
    out = []
    for row in left:
        best: Dict[int, int] = {}
        for k, d1 in row.items():
            for j, d2 in right[k].items():
                d = d1 if d1 <= d2 else d2
                if best.get(j, 0) < d:
                    best[j] = d
        out.append(best)
    return out


def compose(phi: FuzzyRelation, psi: FuzzyRelation) -> FuzzyRelation:
    """Max-min composition of two fuzzy relations."""
    if phi.cols != psi.rows:
        raise ValueError(f"composition dimension mismatch: {phi.cols} vs {psi.rows}")
    return FuzzyRelation._trusted(phi.rows, psi.cols, enumerate(_maxmin_rows(phi._fwd, psi._fwd)))


def rst_closure(phi: FuzzyRelation) -> FuzzyRelation:
    """Reflexive-symmetric-min-transitive closure of a square fuzzy relation.

    Kruskal in descending degree order: the entries, read as undirected
    edges, join components, and when two components first meet at degree d
    every pair across them gets d (the widest path between them); the
    diagonal is 1.  O(m log m) plus the size of the output.
    """
    if not phi.is_square:
        raise ValueError("closure requires a square relation")
    n = phi.rows
    rows = [{i: SCALE} for i in range(n)]
    component = list(range(n))
    members = [[i] for i in range(n)]
    # ties are taken in any order: the closure is the same
    for d, i, j in sorted([(d, i, j) for i, row in enumerate(phi._fwd) for j, d in row.items()], reverse=True):
        a, b = component[i], component[j]
        if a == b:
            continue
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for x in members[a]:
            for y in members[b]:
                rows[x][y] = d
                rows[y][x] = d
        for y in members[b]:
            component[y] = a
        members[a] += members[b]
        members[b] = []
    return FuzzyRelation._trusted(n, n, enumerate(rows))


def is_fuzzy_equivalence(phi: FuzzyRelation) -> bool:
    """True iff phi is reflexive, symmetric and min-transitive."""
    if not phi.is_square:
        raise ValueError("equivalence check requires a square relation")
    rows = phi._fwd
    if any(row.get(i) != SCALE for i, row in enumerate(rows)):
        return False
    for i, row in enumerate(rows):
        for k, d1 in row.items():
            if rows[k].get(i) != d1:
                return False
            for j, d2 in rows[k].items():
                through = d1 if d1 <= d2 else d2
                if row.get(j, 0) < through:
                    return False
    return True
