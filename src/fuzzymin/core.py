"""Godel-algebra kernel: exact truth degrees plus sparse fuzzy sets and relations.

Every algorithm in this package only compares, mins and maxes degrees, so
degrees are stored as scaled integers (nine fractional decimal digits).
That keeps comparisons exact and makes every tie deterministic; no floating
point ever enters the algebra.
"""

from __future__ import annotations

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


class FuzzySet:
    """Sparse fuzzy subset of a finite indexed carrier; only positive entries
    stored.  The constructor checks every entry, ``_trusted`` none."""

    __slots__ = ("size", "_entries")

    def __init__(self, size: int, entries: Mapping[int, Degree] | Iterable[Tuple[int, Degree]] = ()):
        if size < 0:
            raise ValueError("carrier size must be non-negative")
        self.size = size
        data: Dict[int, Degree] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for key, deg in pairs:
            if not 0 <= key < size:
                raise ValueError(f"element index {key} outside carrier of size {size}")
            if not isinstance(deg, Degree):
                deg = Degree(deg)
            if deg.is_zero:
                raise ValueError(f"zero entries must be omitted (element {key})")
            if key in data:
                raise ValueError(f"duplicate entry for element {key}")
            data[key] = deg
        self._entries = data

    @classmethod
    def _trusted(cls, size: int, entries: Dict[int, Degree]) -> "FuzzySet":
        """Wrap entries that are valid by construction: nonzero ``Degree``s
        keyed by indices inside the carrier.  Takes ownership of the dict."""
        fset = cls.__new__(cls)
        fset.size = size
        fset._entries = entries
        return fset

    def value(self, key: int) -> Degree:
        return self._entries.get(key, ZERO)

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))

    def items(self) -> Iterator[Tuple[int, Degree]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuzzySet)
            and self.size == other.size
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.size, tuple(sorted(self._entries.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{v}" for k, v in self.items())
        return f"FuzzySet({self.size}, {{{body}}})"


# A relation as successor rows of scaled degrees: row i maps each target j of
# a positive entry to its scaled degree.  The concept evaluator computes on it.
ScaledRows = List[Dict[int, int]]


class FuzzyRelation:
    """Sparse fuzzy relation between two finite indexed carriers.

    Keeps each row's successors sorted by target, so successors(x) is cheap.
    The constructor checks every entry; ``_trusted`` builds the same object
    from entries that are valid by construction without checking them.
    Relations are immutable, so the sorted degree set and the scaled rows are
    computed once, on first use.
    """

    __slots__ = ("rows", "cols", "_entries", "_fwd", "_degrees", "_scaled_rows")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[Tuple[int, int], Degree] | Iterable[Tuple[Tuple[int, int], Degree]] = (),
    ):
        if rows < 0 or cols < 0:
            raise ValueError("carrier sizes must be non-negative")
        data: Dict[Tuple[int, int], Degree] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), deg in pairs:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"pair ({i},{j}) outside carrier {rows}x{cols}")
            if not isinstance(deg, Degree):
                deg = Degree(deg)
            if deg.is_zero:
                raise ValueError(f"zero entries must be omitted (pair ({i},{j}))")
            if (i, j) in data:
                raise ValueError(f"duplicate entry for pair ({i},{j})")
            data[i, j] = deg
        self._build(rows, cols, data)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: Dict[Tuple[int, int], Degree]) -> "FuzzyRelation":
        """Wrap entries that are valid by construction: nonzero ``Degree``s
        keyed by pairs inside the carriers.  Takes ownership of the dict."""
        rel = cls.__new__(cls)
        rel._build(rows, cols, entries)
        return rel

    def _build(self, rows: int, cols: int, data: Dict[Tuple[int, int], Degree]) -> None:
        """The row builder both constructors share."""
        self.rows = rows
        self.cols = cols
        self._entries = data
        fwd: Dict[int, list] = {}
        for (i, j), deg in data.items():
            fwd.setdefault(i, []).append((j, deg))
        self._fwd = {i: tuple(sorted(v)) for i, v in fwd.items()}
        self._degrees: Optional[Tuple[Degree, ...]] = None
        self._scaled_rows: Optional[ScaledRows] = None

    def value(self, i: int, j: int) -> Degree:
        return self._entries.get((i, j), ZERO)

    def successors(self, i: int) -> Tuple[Tuple[int, Degree], ...]:
        return self._fwd.get(i, ())

    def items(self) -> Iterator[Tuple[Tuple[int, int], Degree]]:
        keys = sorted(self._entries)  # sorting the pairs alone is cheaper than sorting items
        return zip(keys, map(self._entries.__getitem__, keys))

    def support_size(self) -> int:
        return len(self._entries)

    def sources(self) -> Tuple[int, ...]:
        return tuple(sorted(self._fwd))

    def degrees(self) -> Tuple[Degree, ...]:
        if self._degrees is None:
            self._degrees = tuple(sorted(set(self._entries.values())))
        return self._degrees

    def scaled_rows(self) -> ScaledRows:
        """The relation as ``ScaledRows``, shared by every caller, so callers
        must not write to it."""
        if self._scaled_rows is None:
            self._scaled_rows = [{j: d.scaled for j, d in self.successors(i)} for i in range(self.rows)]
        return self._scaled_rows

    def inverse(self) -> "FuzzyRelation":
        return FuzzyRelation._trusted(self.cols, self.rows, {(j, i): d for (i, j), d in self._entries.items()})

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuzzyRelation)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self._entries.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}):{d}" for (i, j), d in self.items())
        return f"FuzzyRelation({self.rows}x{self.cols}, {{{body}}})"


def identity_relation(n: int) -> FuzzyRelation:
    return FuzzyRelation(n, n, {(i, i): ONE for i in range(n)})


def _from_scaled_rows(rows: ScaledRows, cols: int) -> FuzzyRelation:
    return FuzzyRelation._trusted(len(rows), cols, {
        (i, j): Degree.from_scaled(d) for i, row in enumerate(rows) for j, d in row.items()})


def _maxmin_rows(left: ScaledRows, right: ScaledRows) -> ScaledRows:
    """Max-min product of two relations in row form, O(sum over entries (i, k)
    of left of the length of right's row k)."""
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
    return _from_scaled_rows(_maxmin_rows(phi.scaled_rows(), psi.scaled_rows()), psi.cols)


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
    entries: Dict[Tuple[int, int], Degree] = {(i, i): ONE for i in range(n)}
    component = list(range(n))
    members = [[i] for i in range(n)]
    for (i, j), d in sorted(phi._entries.items(), key=lambda item: item[1].scaled, reverse=True):
        a, b = component[i], component[j]
        if a == b:
            continue
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for x in members[a]:
            for y in members[b]:
                entries[x, y] = d
                entries[y, x] = d
        for y in members[b]:
            component[y] = a
        members[a] += members[b]
        members[b] = []
    return FuzzyRelation._trusted(n, n, entries)


def is_fuzzy_equivalence(phi: FuzzyRelation) -> bool:
    """True iff phi is reflexive, symmetric and min-transitive."""
    if not phi.is_square:
        raise ValueError("equivalence check requires a square relation")
    for i in range(phi.rows):
        if not phi.value(i, i).is_one:
            return False
    for (i, j), d in phi._entries.items():
        if phi.value(j, i) != d:
            return False
    for (i, k), d1 in phi._entries.items():
        for j, d2 in phi.successors(k):
            through = d1 if d1 <= d2 else d2
            if phi.value(i, j) < through:
                return False
    return True
