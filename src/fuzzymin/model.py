"""Signatures and finite fuzzy interpretations: multi-relational weighted graphs
with fuzzy concept labels and named individuals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import DegreeLike, FuzzyRelation, FuzzySet

VALID_FEATURES = frozenset({"I", "O"})


def normalize_features(features: Iterable[str] | None) -> frozenset:
    fs = frozenset(features or ())
    if not fs <= VALID_FEATURES:
        raise ValueError(f"unknown features: {sorted(fs - VALID_FEATURES)}")
    return fs


def _are_tokens(names: Sequence[str]) -> bool:
    """Whether every name reads back as itself from the text format:
    non-empty, free of whitespace (str.split splits on exactly the
    characters str.isspace accepts) and free of ``#``, which starts a
    comment.  One join and one split check all the names at once."""
    joined = " ".join(names)
    return "#" not in joined and joined.split() == list(names)


def _domain_name_problems(domain: Sequence[str]) -> List[str]:
    """One message per domain element name that does not read back."""
    if _are_tokens(domain):
        return []
    return [f"domain element name is not a whitespace-free token without '#': {name!r}"
            for name in domain if not _are_tokens((name,))]


@dataclass(frozen=True)
class Signature:
    """Concept, role and individual names plus the enabled language features."""

    concept_names: Tuple[str, ...]
    role_names: Tuple[str, ...]
    individual_names: Tuple[str, ...]
    features: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "concept_names", tuple(self.concept_names))
        object.__setattr__(self, "role_names", tuple(self.role_names))
        object.__setattr__(self, "individual_names", tuple(self.individual_names))
        object.__setattr__(self, "features", normalize_features(self.features))
        if not self.individual_names:
            raise ValueError("at least one individual name is required")
        seen = {}
        for kind, names in (
            ("concept", self.concept_names),
            ("role", self.role_names),
            ("individual", self.individual_names),
        ):
            for name in names:
                if not _are_tokens((name,)):
                    raise ValueError(f"{kind} name must be a non-empty token without whitespace or '#': {name!r}")
                if name in seen:
                    raise ValueError(f"name {name!r} used as both {seen[name]} and {kind}")
                seen[name] = kind

    def same_names(self, other: "Signature") -> bool:
        return (
            self.concept_names == other.concept_names
            and self.role_names == other.role_names
            and self.individual_names == other.individual_names
        )


class BasicRole(NamedTuple):
    """A role name or, when inverse is set, the inverse of a role name."""

    name: str
    inverse: bool = False

    def __str__(self) -> str:
        return f"{self.name}^-" if self.inverse else self.name


def basic_roles(signature: Signature, features: Iterable[str] | None = None) -> Tuple[BasicRole, ...]:
    """Basic roles in deterministic order: role names first, then inverses if enabled."""
    fs = normalize_features(features if features is not None else signature.features)
    out = [BasicRole(r) for r in signature.role_names]
    if "I" in fs:
        out.extend(BasicRole(r, True) for r in signature.role_names)
    return tuple(out)


class FuzzyInterpretation:
    """A finite domain with fuzzy atomic concepts, fuzzy atomic roles and
    named individuals.  Immutable after construction."""

    def __init__(
        self,
        signature: Signature,
        domain: Iterable[str],
        individuals: Mapping[str, int],
        concepts: Mapping[str, FuzzySet],
        roles: Mapping[str, FuzzyRelation],
    ):
        self.signature = signature
        self.domain = tuple(domain)
        self.individuals = dict(individuals)
        self.concepts = dict(concepts)
        self.roles = dict(roles)
        self._index = {name: i for i, name in enumerate(self.domain)}
        self._inverse_cache: Dict[str, FuzzyRelation] = {}

    @property
    def n(self) -> int:
        return len(self.domain)

    def element_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown domain element: {name!r}") from None

    def element_name(self, index: int) -> str:
        return self.domain[index]

    def individual_element(self, name: str) -> int:
        try:
            return self.individuals[name]
        except KeyError:
            raise ValueError(f"individual {name!r} has no assigned element") from None

    def concept_set(self, concept_name: str) -> FuzzySet:
        got = self.concepts.get(concept_name)
        return got if got is not None else FuzzySet(self.n)

    def role_relation(self, role_name: str) -> FuzzyRelation:
        got = self.roles.get(role_name)
        return got if got is not None else FuzzyRelation(self.n, self.n)

    def basic_role_relation(self, role: BasicRole) -> FuzzyRelation:
        if not role.inverse:
            return self.role_relation(role.name)
        cached = self._inverse_cache.get(role.name)
        if cached is None:
            cached = self.role_relation(role.name).inverse()
            self._inverse_cache[role.name] = cached
        return cached

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FuzzyInterpretation)
            and self.signature == other.signature
            and self.domain == other.domain
            and self.individuals == other.individuals
            and {k: v for k, v in self.concepts.items() if len(v)}
            == {k: v for k, v in other.concepts.items() if len(v)}
            and {k: v for k, v in self.roles.items() if len(v)}
            == {k: v for k, v in other.roles.items() if len(v)}
        )

    def __repr__(self) -> str:
        return f"FuzzyInterpretation(n={self.n}, individuals={self.individuals})"


def require_same_signature(interp1: FuzzyInterpretation, interp2: FuzzyInterpretation) -> None:
    if not interp1.signature.same_names(interp2.signature):
        raise ValueError("interpretations use different signatures")


def make_interpretation(
    signature: Signature,
    domain: Iterable[str],
    individuals: Mapping[str, str],
    concepts: Mapping[str, Mapping[str, DegreeLike]] | None = None,
    roles: Mapping[str, Mapping[Tuple[str, str], DegreeLike]] | None = None,
) -> FuzzyInterpretation:
    """Build an interpretation from name-based fact maps.

    Raises ValueError on unknown names, domain names the text format cannot
    read back, or explicit zero degrees; sparse storage means a zero-degree
    fact is simply not written down.
    """
    domain = tuple(domain)
    problems = _domain_name_problems(domain)
    if problems:
        raise ValueError("; ".join(problems))
    index = {name: i for i, name in enumerate(domain)}
    if len(index) != len(domain):
        raise ValueError("duplicate domain element names")
    n = len(domain)

    ind: Dict[str, int] = {}
    for a, elem in individuals.items():
        if elem not in index:
            raise ValueError(f"individual {a!r} names unknown element {elem!r}")
        ind[a] = index[elem]

    csets: Dict[str, FuzzySet] = {}
    for cname, facts in (concepts or {}).items():
        entries = {}
        for elem, deg in facts.items():
            if elem not in index:
                raise ValueError(f"concept fact {cname}({elem}) names unknown element")
            entries[index[elem]] = deg
        csets[cname] = FuzzySet(n, entries)

    rrels: Dict[str, FuzzyRelation] = {}
    for rname, facts in (roles or {}).items():
        entries = {}
        for (x, y), deg in facts.items():
            if x not in index or y not in index:
                raise ValueError(f"role fact {rname}({x},{y}) names unknown element")
            entries[index[x], index[y]] = deg
        rrels[rname] = FuzzyRelation(n, n, entries)

    return FuzzyInterpretation(signature, domain, ind, csets, rrels)


def validate(interp: FuzzyInterpretation) -> list:
    """Check the structural invariants; violations are returned as data."""
    out = []
    sig = interp.signature
    n = interp.n
    if n == 0:
        out.append("domain is empty")
    if len(set(interp.domain)) != len(interp.domain):
        out.append("duplicate domain element names")
    out.extend(_domain_name_problems(interp.domain))
    for a in sig.individual_names:
        if a not in interp.individuals:
            out.append(f"individual {a} has no assigned element")
    for a, idx in interp.individuals.items():
        if a not in sig.individual_names:
            out.append(f"individual {a} is not declared in the signature")
        elif not 0 <= idx < n:
            out.append(f"individual {a} points outside the domain (index {idx})")
    for cname, fset in interp.concepts.items():
        if cname not in sig.concept_names:
            out.append(f"concept {cname} is not declared in the signature")
        if fset.size != n:
            out.append(f"concept {cname} has carrier size {fset.size}, expected {n}")
    for rname, rel in interp.roles.items():
        if rname not in sig.role_names:
            out.append(f"role {rname} is not declared in the signature")
        if (rel.rows, rel.cols) != (n, n):
            out.append(f"role {rname} has shape {rel.rows}x{rel.cols}, expected {n}x{n}")
    return out


@dataclass(frozen=True)
class SizeStats:
    """Instance size figures: domain size, role-instance count and the
    number of distinct nonzero atomic-role degrees plus two."""

    n: int
    m: int
    l: int


def size_stats(interp: FuzzyInterpretation) -> SizeStats:
    m = 0
    degrees = set()
    for rname in interp.signature.role_names:
        rel = interp.roles.get(rname)
        if rel is None:
            continue
        m += rel.support_size()
        degrees.update(rel.degrees())
    return SizeStats(n=interp.n, m=m, l=len(degrees) + 2)
