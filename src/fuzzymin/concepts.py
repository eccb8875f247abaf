"""Concept and role expressions: syntax tree, text grammar, Godel-semantics
evaluator, assertion checking and random sampling.

The evaluator is the package's verification oracle: preservation claims about
a minimization are checked by sampling expressions and comparing their values
at the named individuals.  It is sparse and exact: a concept's value is a list
of n scaled degrees, a role's value n successor rows (``core.ScaledRows``), so
``exists`` and ``forall`` cost O(n + m) and ``*`` is a widest-path search.

Grammar (role operators bind ``*`` > ``?`` > ``;`` > ``|``; ``->`` is lowest
and right-associative):

    concept  := implies
    implies  := or_c ['->' implies]
    or_c     := and_c ('or' and_c)*
    and_c    := quant ('and' quant)*
    quant    := ('exists' | 'forall') role '.' quant | atom
    atom     := DEGREE | CONCEPT_NAME | '{' INDIVIDUAL '}' | '(' concept ')'

    role     := union
    union    := comp ('|' comp)*
    comp     := prefix (';' prefix)*
    prefix   := 'inv' prefix | postfix
    postfix  := primary '*'*
    primary  := ROLE_NAME | '(' role ')' | atom '?'
"""

from __future__ import annotations

import heapq
import operator
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import Degree, FuzzyRelation, FuzzySet, ONE, SCALE, ScaledRows, biresiduum
from .core import _maxmin_rows
from .model import FuzzyInterpretation, Signature, normalize_features, require_same_signature


# --------------------------------------------------------------------------
# syntax trees
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RoleName:
    name: str


@dataclass(frozen=True)
class RoleUnion:
    left: "Role"
    right: "Role"


@dataclass(frozen=True)
class RoleCompose:
    left: "Role"
    right: "Role"


@dataclass(frozen=True)
class RoleStar:
    inner: "Role"


@dataclass(frozen=True)
class RoleTest:
    concept: "Concept"


@dataclass(frozen=True)
class RoleInverse:
    inner: "Role"


Role = Union[RoleName, RoleUnion, RoleCompose, RoleStar, RoleTest, RoleInverse]


@dataclass(frozen=True)
class Constant:
    degree: Degree


@dataclass(frozen=True)
class ConceptName:
    name: str


@dataclass(frozen=True)
class Or:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class And:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Implies:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Exists:
    role: Role
    body: "Concept"


@dataclass(frozen=True)
class Forall:
    role: Role
    body: "Concept"


@dataclass(frozen=True)
class Nominal:
    name: str


Concept = Union[Constant, ConceptName, Or, And, Implies, Exists, Forall, Nominal]


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


class ConceptParseError(ValueError):
    """Parse failure with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[(){}.;|*?]))"
)

_KEYWORDS = {"and", "or", "exists", "forall", "inv"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ConceptParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "name":
            word = m.group("name")
            kind = word if word in _KEYWORDS else "name"
            out.append(_Token(kind, word, m.start("name")))
        elif m.lastgroup == "number":
            out.append(_Token("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "arrow":
            out.append(_Token("->", "->", m.start("arrow")))
        else:
            p = m.group("punct")
            out.append(_Token(p, p, m.start("punct")))
        pos = m.end()
    out.append(_Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, signature: Signature):
        self.tokens = _tokenize(text)
        self.i = 0
        self.sig = signature
        self.features = signature.features

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ConceptParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def fail(self, message: str) -> None:
        raise ConceptParseError(message, self.peek().pos)

    # concepts ---------------------------------------------------------

    def concept(self) -> Concept:
        left = self.or_c()
        if self.peek().kind == "->":
            self.next()
            return Implies(left, self.concept())
        return left

    def or_c(self) -> Concept:
        node = self.and_c()
        while self.peek().kind == "or":
            self.next()
            node = Or(node, self.and_c())
        return node

    def and_c(self) -> Concept:
        node = self.quant()
        while self.peek().kind == "and":
            self.next()
            node = And(node, self.quant())
        return node

    def quant(self) -> Concept:
        tok = self.peek()
        if tok.kind in ("exists", "forall"):
            self.next()
            role = self.role()
            self.expect(".")
            body = self.quant()
            return Exists(role, body) if tok.kind == "exists" else Forall(role, body)
        return self.atom()

    def atom(self) -> Concept:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            try:
                return Constant(Degree(tok.text))
            except ValueError as exc:
                raise ConceptParseError(str(exc), tok.pos) from None
        if tok.kind == "name":
            if tok.text not in self.sig.concept_names:
                self.fail(f"unknown concept name {tok.text!r}")
            self.next()
            return ConceptName(tok.text)
        if tok.kind == "{":
            self.next()
            name = self.expect("name")
            self.expect("}")
            if "O" not in self.features:
                raise ConceptParseError("nominals require the feature O", name.pos)
            if name.text not in self.sig.individual_names:
                raise ConceptParseError(f"unknown individual name {name.text!r}", name.pos)
            return Nominal(name.text)
        if tok.kind == "(":
            self.next()
            inner = self.concept()
            self.expect(")")
            return inner
        self.fail(f"expected a concept, found {tok.text or 'end of input'!r}")

    # roles --------------------------------------------------------------

    def role(self) -> Role:
        node = self.comp()
        while self.peek().kind == "|":
            self.next()
            node = RoleUnion(node, self.comp())
        return node

    def comp(self) -> Role:
        node = self.prefix()
        while self.peek().kind == ";":
            self.next()
            node = RoleCompose(node, self.prefix())
        return node

    def prefix(self) -> Role:
        tok = self.peek()
        if tok.kind == "inv":
            if "I" not in self.features:
                raise ConceptParseError("inverse roles require the feature I", tok.pos)
            self.next()
            return RoleInverse(self.prefix())
        return self.postfix()

    def postfix(self) -> Role:
        node = self.primary()
        while self.peek().kind == "*":
            self.next()
            node = RoleStar(node)
        return node

    def primary(self) -> Role:
        tok = self.peek()
        if tok.kind == "name" and tok.text in self.sig.role_names:
            self.next()
            return RoleName(tok.text)
        # anything else must be a concept test: atom '?'
        mark = self.i
        try:
            concept = self.atom()
            self.expect("?")
            return RoleTest(concept)
        except ConceptParseError:
            self.i = mark
        if tok.kind == "(":
            self.next()
            inner = self.role()
            self.expect(")")
            return inner
        self.fail(f"expected a role, found {tok.text or 'end of input'!r}")


def _parse(
    text: str, signature: Signature, start: Callable[[_Parser], Union[Concept, Role]]
) -> Union[Concept, Role]:
    """Run the parser from ``start`` over the whole text.  The parser
    recurses once per nesting level, so input nested past the interpreter's
    recursion limit is reported as a parse error, not a crash."""
    parser = _Parser(text, signature)
    try:
        node = start(parser)
    except RecursionError:
        raise ConceptParseError("expression nested too deeply", parser.peek().pos) from None
    parser.expect("eof")
    return node


def parse_concept(text: str, signature: Signature) -> Concept:
    return _parse(text, signature, _Parser.concept)


def parse_role(text: str, signature: Signature) -> Role:
    return _parse(text, signature, _Parser.role)


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

_C_IMPLIES, _C_OR, _C_AND, _C_QUANT, _C_ATOM = range(5)
_R_UNION, _R_COMP, _R_PREFIX, _R_POSTFIX = range(4)

# binding level of each operator node; names, constants, nominals and tests
# bind tightest, at _C_ATOM
_LEVEL = {
    Implies: _C_IMPLIES, Or: _C_OR, And: _C_AND, Exists: _C_QUANT, Forall: _C_QUANT,
    RoleUnion: _R_UNION, RoleCompose: _R_COMP, RoleInverse: _R_PREFIX, RoleStar: _R_POSTFIX,
}


def concept_to_text(node: Concept) -> str:
    return _to_text(node, _C_IMPLIES)


def role_to_text(node: Role) -> str:
    return _to_text(node, _R_UNION)


def _pieces(node) -> list:
    """A node's text as strings and (child, binding level the child needs)."""
    if isinstance(node, Constant):
        return [str(node.degree)]
    if isinstance(node, (ConceptName, RoleName)):
        return [node.name]
    if isinstance(node, Nominal):
        return ["{" + node.name + "}"]
    if isinstance(node, Implies):
        return [(node.left, _C_OR), " -> ", (node.right, _C_IMPLIES)]
    if isinstance(node, Or):
        return [(node.left, _C_OR), " or ", (node.right, _C_AND)]
    if isinstance(node, And):
        return [(node.left, _C_AND), " and ", (node.right, _C_QUANT)]
    if isinstance(node, (Exists, Forall)):
        word = "exists " if isinstance(node, Exists) else "forall "
        return [word, (node.role, _R_UNION), " . ", (node.body, _C_QUANT)]
    if isinstance(node, RoleUnion):
        return [(node.left, _R_UNION), " | ", (node.right, _R_COMP)]
    if isinstance(node, RoleCompose):
        return [(node.left, _R_COMP), " ; ", (node.right, _R_PREFIX)]
    if isinstance(node, RoleInverse):
        return ["inv ", (node.inner, _R_PREFIX)]
    if isinstance(node, RoleStar):
        return [(node.inner, _R_POSTFIX), "*"]
    if isinstance(node, RoleTest):
        return [(node.concept, _C_ATOM), "?"]
    raise TypeError(f"not a concept or role node: {node!r}")


def _to_text(root, required: int) -> str:
    """The text of a tree, written left to right from an explicit stack, so
    no tree is too deep to print; a node binding looser than its place
    requires is parenthesized."""
    out: List[str] = []
    stack: list = [(root, required)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, required = item
        pieces = _pieces(node)
        if _LEVEL.get(type(node), _C_ATOM) < required:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _widest_paths(rows: ScaledRows, source: int) -> Dict[int, int]:
    """Row ``source`` of the reflexive-transitive closure: each reachable
    target with the largest, over paths, of the smallest degree on the path."""
    best = {source: SCALE}
    heap = [(-SCALE, source)]
    while heap:
        width, x = heapq.heappop(heap)
        width = -width
        if width < best[x]:
            continue  # x was reached more widely after this entry was pushed
        for y, d in rows[x].items():
            w = d if d < width else width
            if best.get(y, 0) < w:
                best[y] = w
                heapq.heappush(heap, (-w, y))
    return best


# each operator node's operands, in the order the printer writes them
_OPERANDS = {
    Or: ("left", "right"), And: ("left", "right"), Implies: ("left", "right"),
    Exists: ("role", "body"), Forall: ("role", "body"),
    RoleUnion: ("left", "right"), RoleCompose: ("left", "right"),
    RoleStar: ("inner",), RoleInverse: ("inner",), RoleTest: ("concept",),
}


def _value(root, interp: FuzzyInterpretation):
    """A concept's scaled values or a role's ``ScaledRows``.

    Nodes are evaluated in post-order from an explicit stack, operands
    before the node, so no tree is too deep to evaluate.  The memo is keyed
    by node identity (a frozen node's hash re-hashes its subtree); the root
    keeps every node, so every id, alive for the call.
    """
    memo: Dict[int, list] = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        names = _OPERANDS.get(type(node))
        if names is None:
            memo[id(node)] = _node_value(node, interp, ())
        elif ready:
            memo[id(node)] = _node_value(node, interp, [memo[id(getattr(node, name))] for name in names])
        else:
            stack.append((node, True))
            for name in reversed(names):  # the left operand is evaluated first
                stack.append((getattr(node, name), False))
    return memo[id(root)]


def _node_value(node, interp: FuzzyInterpretation, args: list):
    """One node's value from its operands' values, in ``_OPERANDS`` order."""
    n = interp.n
    if isinstance(node, Constant):
        return [node.degree.scaled] * n
    if isinstance(node, ConceptName):
        out = [0] * n
        for x, d in interp.concept_set(node.name)._entries.items():
            out[x] = d
        return out
    if isinstance(node, Nominal):
        out = [0] * n
        out[interp.individual_element(node.name)] = SCALE
        return out
    if isinstance(node, RoleName):
        return interp.role_relation(node.name)._fwd
    if isinstance(node, Or):
        return list(map(max, *args))
    if isinstance(node, And):
        return list(map(min, *args))
    if isinstance(node, Implies):
        return [SCALE if x <= y else y for x, y in zip(*args)]
    if isinstance(node, Exists):
        rows, c = args
        # a missing successor has degree 0 and adds 0 to the supremum
        return [max([d if d < c[y] else c[y] for y, d in row.items()], default=0) for row in rows]
    if isinstance(node, Forall):
        rows, c = args
        # a missing successor has degree 0 and adds 1 (= 0 => c) to the infimum
        return [min([SCALE if d <= c[y] else c[y] for y, d in row.items()], default=SCALE) for row in rows]
    if isinstance(node, RoleUnion):
        out = []
        for left, right in zip(*args):
            row = dict(left)
            for j, d in right.items():
                if row.get(j, 0) < d:
                    row[j] = d
            out.append(row)
        return out
    if isinstance(node, RoleCompose):
        return _maxmin_rows(*args)
    if isinstance(node, RoleStar):
        inner, = args
        return [_widest_paths(inner, x) for x in range(n)]
    if isinstance(node, RoleTest):
        values, = args
        return [{x: v} if v else {} for x, v in enumerate(values)]
    if isinstance(node, RoleInverse):
        rows, = args
        out = [{} for _ in range(n)]
        for i, row in enumerate(rows):
            for j, d in row.items():
                out[j][i] = d
        return out
    raise TypeError(f"not a concept or role node: {node!r}")


def eval_role(node: Role, interp: FuzzyInterpretation) -> FuzzyRelation:
    return FuzzyRelation._trusted(interp.n, interp.n, enumerate(_value(node, interp)))


def eval_concept(node: Concept, interp: FuzzyInterpretation) -> FuzzySet:
    values = _value(node, interp)
    return FuzzySet._trusted(interp.n, {x: v for x, v in enumerate(values) if v})


# --------------------------------------------------------------------------
# assertions
# --------------------------------------------------------------------------

_COMPARATORS: Dict[str, Callable[[Degree, Degree], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class ConceptAssertion:
    concept: Concept
    individual: str
    relation: str
    degree: Degree


@dataclass(frozen=True)
class RoleAssertion:
    role: Role
    subject: str
    target: str
    relation: str
    degree: Degree


@dataclass(frozen=True)
class SameIndividual:
    left: str
    right: str


@dataclass(frozen=True)
class DistinctIndividual:
    left: str
    right: str


FuzzyAssertion = Union[ConceptAssertion, RoleAssertion, SameIndividual, DistinctIndividual]


def check_assertion(interp: FuzzyInterpretation, assertion: FuzzyAssertion) -> bool:
    if isinstance(assertion, ConceptAssertion):
        cmp = _COMPARATORS[assertion.relation]
        values = _value(assertion.concept, interp)
        value = Degree.from_scaled(values[interp.individual_element(assertion.individual)])
        return cmp(value, assertion.degree)
    if isinstance(assertion, RoleAssertion):
        cmp = _COMPARATORS[assertion.relation]
        row = _value(assertion.role, interp)[interp.individual_element(assertion.subject)]
        value = Degree.from_scaled(row.get(interp.individual_element(assertion.target), 0))
        return cmp(value, assertion.degree)
    if isinstance(assertion, SameIndividual):
        return interp.individual_element(assertion.left) == interp.individual_element(assertion.right)
    if isinstance(assertion, DistinctIndividual):
        return interp.individual_element(assertion.left) != interp.individual_element(assertion.right)
    raise TypeError(f"not an assertion: {assertion!r}")


def check_abox(interp: FuzzyInterpretation, assertions: Iterable[FuzzyAssertion]) -> bool:
    return all(check_assertion(interp, psi) for psi in assertions)


# --------------------------------------------------------------------------
# random sampling and preservation reports
# --------------------------------------------------------------------------

L0_FRAGMENT = "L0"
FULL_FRAGMENT = "full"

_DEFAULT_POOL = (Degree(0), Degree("0.5"), Degree(1))


def random_concept(
    signature: Signature,
    features: Iterable[str] | None,
    fragment: str,
    depth: int,
    rng: Union[int, random.Random],
    degree_pool: Sequence[Degree] = _DEFAULT_POOL,
) -> Concept:
    """Sample a concept of the requested fragment with height at most depth.

    Deterministic for a fixed integer seed.  Constants are drawn from
    ``degree_pool``; callers that verify preservation pass the degrees of the
    interpretation under test plus {0, 0.5, 1}.
    """
    if fragment not in (L0_FRAGMENT, FULL_FRAGMENT):
        raise ValueError(f"unknown fragment {fragment!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    fs = normalize_features(features)
    r = rng if isinstance(rng, random.Random) else random.Random(rng)
    pool = tuple(degree_pool) or _DEFAULT_POOL

    def leaf() -> Concept:
        options = ["constant"]
        if signature.concept_names:
            options.extend(["name", "name"])  # favour names over constants
        if "O" in fs:
            options.append("nominal")
        pick = r.choice(options)
        if pick == "name":
            return ConceptName(r.choice(signature.concept_names))
        if pick == "nominal":
            return Nominal(r.choice(signature.individual_names))
        return Constant(r.choice(pool))

    def basic_role() -> Role:
        node: Role = RoleName(r.choice(signature.role_names))
        if "I" in fs and r.random() < 0.5:
            node = RoleInverse(node)
        return node

    def sample_role(budget: int) -> Role:
        if fragment == L0_FRAGMENT or budget <= 0 or r.random() < 0.4:
            return basic_role()
        pick = r.choice(["union", "compose", "star", "test", "basic"])
        if pick == "union":
            return RoleUnion(sample_role(budget - 1), sample_role(budget - 1))
        if pick == "compose":
            return RoleCompose(sample_role(budget - 1), sample_role(budget - 1))
        if pick == "star":
            return RoleStar(sample_role(budget - 1))
        if pick == "test":
            return RoleTest(sample(budget - 1))
        return basic_role()

    def sample(budget: int) -> Concept:
        if budget <= 0 or r.random() < 0.25:
            return leaf()
        ops = ["and", "implies"]
        if fragment == FULL_FRAGMENT:
            ops.extend(["or"])
        if signature.role_names:
            ops.append("exists")
            if fragment == FULL_FRAGMENT:
                ops.append("forall")
        pick = r.choice(ops)
        if pick == "and":
            return And(sample(budget - 1), sample(budget - 1))
        if pick == "or":
            return Or(sample(budget - 1), sample(budget - 1))
        if pick == "implies":
            return Implies(sample(budget - 1), sample(budget - 1))
        if pick == "exists":
            return Exists(sample_role(budget - 1), sample(budget - 1))
        return Forall(sample_role(budget - 1), sample(budget - 1))

    return sample(depth)


@dataclass(frozen=True)
class PreservationCounterexample:
    concept_text: str
    individual: str
    left: Degree
    right: Degree
    agreement: Degree


@dataclass
class PreservationReport:
    samples: int
    depth: int
    gamma: Degree
    min_agreement: Degree
    counterexamples: List[PreservationCounterexample] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def interpretation_degree_pool(*interps: FuzzyInterpretation) -> Tuple[Degree, ...]:
    pool = {Degree(0), Degree("0.5"), Degree(1)}
    for interp in interps:
        for fset in interp.concepts.values():
            pool.update(d for _, d in fset.items())
        for rel in interp.roles.values():
            pool.update(d for _, d in rel.items())
    return tuple(sorted(pool))


def preservation_report(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None,
    gamma: Degree,
    samples: int,
    depth: int,
    seed: int,
) -> PreservationReport:
    """Sample full-language concepts and compare their values at every named
    individual; any agreement degree below gamma is a counterexample."""
    require_same_signature(interp1, interp2)
    if not isinstance(gamma, Degree):
        gamma = Degree(gamma)
    rng = random.Random(seed)
    pool = interpretation_degree_pool(interp1, interp2)
    sig = interp1.signature
    report = PreservationReport(samples=samples, depth=depth, gamma=gamma, min_agreement=ONE)
    for _ in range(samples):
        concept = random_concept(sig, features, FULL_FRAGMENT, depth, rng, pool)
        v1 = _value(concept, interp1)
        v2 = _value(concept, interp2)
        for a in sig.individual_names:
            left = Degree.from_scaled(v1[interp1.individual_element(a)])
            right = Degree.from_scaled(v2[interp2.individual_element(a)])
            agreement = biresiduum(left, right)
            if agreement < report.min_agreement:
                report.min_agreement = agreement
            if agreement < gamma:
                report.counterexamples.append(
                    PreservationCounterexample(concept_to_text(concept), a, left, right, agreement)
                )
    return report
