"""Random-instance generator and benchmark harness.

Instances are built from pairwise disconnected components with exact per
component counts of elements, role instances, named individuals and concept
instances, a fixed global count of distinct degrees, and optional acyclicity
(edges only from lower to higher element index inside a component).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import Degree, SCALE
from .minimize import MinimizeParams, approximate_minimize
from .model import FuzzyInterpretation, Signature, make_interpretation


@dataclass(frozen=True)
class GeneratorParams:
    """Shape parameters: k components of n_per elements each, m_per role
    instances and p_per concept instances per component, o_per named
    individuals numbered first, l distinct degrees, sCN/sRN name counts."""

    k: int
    n_per: int
    m_per: int
    o_per: int
    p_per: int
    l: int
    sCN: int
    sRN: int
    acyclic: bool = False
    withI: bool = False
    withO: bool = False
    seed: int = 0

    @classmethod
    def from_row(cls, values: Sequence[int], seed: int) -> "GeneratorParams":
        """The shape from its eleven integers in ``SHAPE`` order; the last
        three are flags, set when nonzero."""
        return cls(*values[:8], *(bool(v) for v in values[8:]), seed=seed)

    def row(self) -> Tuple[int, ...]:
        """The eleven integers ``from_row`` reads, flags as 0 or 1."""
        return tuple(int(getattr(self, name)) for name in SHAPE)

    def features(self) -> frozenset:
        fs = set()
        if self.withI:
            fs.add("I")
        if self.withO:
            fs.add("O")
        return frozenset(fs)


# the shape fields in the order of a ``fuzzymin gen`` command line and of a
# bench spec row: every field but the seed
SHAPE = tuple(f.name for f in fields(GeneratorParams) if f.name != "seed")


def _check_feasible(p: GeneratorParams) -> None:
    if p.k < 1:
        raise ValueError("need at least one component")
    if p.n_per < 1:
        raise ValueError("components need at least one element")
    if not 1 <= p.o_per <= p.n_per:
        raise ValueError("named individuals per component must lie in [1, elements per component]")
    if p.l < 1:
        raise ValueError("need at least one degree value")
    if p.sCN < 0 or p.sRN < 0:
        raise ValueError("name counts must be non-negative")
    if p.m_per < 0 or p.p_per < 0:
        raise ValueError("fact counts must be non-negative")
    if p.m_per > 0 and p.sRN == 0:
        raise ValueError("role instances requested but no role names")
    if p.p_per > 0 and p.sCN == 0:
        raise ValueError("concept instances requested but no concept names")
    pair_slots = p.n_per * (p.n_per - 1) // 2 if p.acyclic else p.n_per * p.n_per
    if p.m_per > p.sRN * pair_slots:
        kind = "acyclic " if p.acyclic else ""
        raise ValueError(
            f"cannot place {p.m_per} {kind}role instances in a component of "
            f"{p.n_per} elements with {p.sRN} role names (max {p.sRN * pair_slots})"
        )
    if p.p_per > p.sCN * p.n_per:
        raise ValueError(
            f"cannot place {p.p_per} concept instances in a component of "
            f"{p.n_per} elements with {p.sCN} concept names (max {p.sCN * p.n_per})"
        )


def degree_palette(l: int) -> List[Degree]:
    """l distinct degrees i/(l+1), truncated to nine fractional digits."""
    return [Degree.from_scaled(i * SCALE // (l + 1)) for i in range(1, l + 1)]


def _decode_acyclic_pair(q: int, n: int) -> Tuple[int, int]:
    # pairs (i, j) with i < j in lexicographic order; row i starts at
    # F(i) = (b*i - i*i) / 2 with b = 2n - 1, so i is the largest integer with
    # F(i) <= q: the floor of the smaller root (b - sqrt(d)) / 2, d = b*b - 8q
    b = 2 * n - 1
    s = math.isqrt(b * b - 8 * q - 1) + 1  # ceil(sqrt(d)), as d >= 1
    i = (b - s) // 2
    return i, i + 1 + q - (b * i - i * i) // 2


def generate(params: GeneratorParams) -> FuzzyInterpretation:
    """Build an instance meeting all the declared counts; deterministic per seed."""
    _check_feasible(params)
    rng = random.Random(params.seed)
    k, n_per = params.k, params.n_per

    concept_names = tuple(f"A{i}" for i in range(params.sCN))
    role_names = tuple(f"r{i}" for i in range(params.sRN))
    individual_names = tuple(
        f"a{c}_{i}" for c in range(k) for i in range(params.o_per)
    )
    signature = Signature(concept_names, role_names, individual_names, params.features())

    domain = [f"x{c}_{j}" for c in range(k) for j in range(n_per)]
    individuals = {
        f"a{c}_{i}": f"x{c}_{i}" for c in range(k) for i in range(params.o_per)
    }

    pair_slots = n_per * (n_per - 1) // 2 if params.acyclic else n_per * n_per
    role_facts: List[Tuple[str, str, str]] = []
    concept_facts: List[Tuple[str, str]] = []
    for c in range(k):
        base = c * n_per
        if params.m_per:
            for slot in sorted(rng.sample(range(params.sRN * pair_slots), params.m_per)):
                role_idx, q = divmod(slot, pair_slots)
                if params.acyclic:
                    i, j = _decode_acyclic_pair(q, n_per)
                else:
                    i, j = divmod(q, n_per)
                role_facts.append((role_names[role_idx], domain[base + i], domain[base + j]))
        if params.p_per:
            for slot in sorted(rng.sample(range(params.sCN * n_per), params.p_per)):
                concept_idx, i = divmod(slot, n_per)
                concept_facts.append((concept_names[concept_idx], domain[base + i]))

    palette = degree_palette(params.l)
    total_facts = len(role_facts) + len(concept_facts)
    if total_facts >= params.l:
        degrees = list(palette)
        degrees.extend(palette[rng.randrange(params.l)] for _ in range(total_facts - params.l))
    else:
        # too few facts to realize every palette degree; use the first ones
        degrees = list(palette[:total_facts])
    rng.shuffle(degrees)

    roles: Dict[str, Dict[Tuple[str, str], Degree]] = {}
    for (rname, x, y), deg in zip(role_facts, degrees[: len(role_facts)]):
        roles.setdefault(rname, {})[(x, y)] = deg
    concepts: Dict[str, Dict[str, Degree]] = {}
    for (cname, x), deg in zip(concept_facts, degrees[len(role_facts):]):
        concepts.setdefault(cname, {})[x] = deg

    return make_interpretation(signature, domain, individuals, concepts, roles)


@dataclass
class BenchRow:
    """Averaged minimization outcome for one parameter set."""

    params: GeneratorParams
    gamma: Degree
    repeats: int
    n: int
    m: int
    n1: float
    m1: float
    reduction: float
    seconds: float

    def params_text(self) -> str:
        return " ".join(map(str, self.params.row()))


def derive_seed(base: int, repeat: int) -> int:
    return base * 1_000_003 + repeat


def run_bench(
    params_list: Sequence[GeneratorParams],
    gamma: Degree = Degree(1),
    repeats: int = 3,
) -> List[BenchRow]:
    """Generate, minimize and average; timing covers the minimizer only."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if not isinstance(gamma, Degree):
        gamma = Degree(gamma)
    rows: List[BenchRow] = []
    for params in params_list:
        n1_total = 0
        m1_total = 0
        elapsed_total = 0.0
        m_input = 0
        for rep in range(repeats):
            interp = generate(replace(params, seed=derive_seed(params.seed, rep)))
            m_input = sum(rel.support_size() for rel in interp.roles.values())
            mp = MinimizeParams(features=params.features(), gamma=gamma)
            start = time.perf_counter()
            result = approximate_minimize(interp, mp)
            elapsed_total += time.perf_counter() - start
            n1_total += result.n1
            m1_total += result.m1
        n = params.k * params.n_per
        n1_avg = n1_total / repeats
        rows.append(
            BenchRow(
                params=params,
                gamma=gamma,
                repeats=repeats,
                n=n,
                m=m_input,
                n1=n1_avg,
                m1=m1_total / repeats,
                reduction=1.0 - n1_avg / n,
                seconds=elapsed_total / repeats,
            )
        )
    return rows


def format_table(rows: Sequence[BenchRow]) -> str:
    header = ("#", "parameters", "n", "m", "n1", "m1", "red.", "seconds")
    body = []
    for i, row in enumerate(rows, start=1):
        body.append(
            (
                str(i),
                row.params_text(),
                str(row.n),
                str(row.m),
                f"{row.n1:.1f}",
                f"{row.m1:.1f}",
                f"{row.reduction * 100:.0f}%",
                f"{row.seconds:.3f}",
            )
        )
    widths = [max(len(header[c]), *(len(r[c]) for r in body)) if body else len(header[c]) for c in range(len(header))]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(header))]
    for r in body:
        lines.append("  ".join(v.ljust(widths[c]) for c, v in enumerate(r)))
    return "\n".join(lines) + "\n"


def format_csv(rows: Sequence[BenchRow]) -> str:
    lines = ["params,n1,m1,reduction,seconds"]
    for row in rows:
        lines.append(
            f"{row.params_text()},{row.n1:.2f},{row.m1:.2f},{row.reduction:.4f},{row.seconds:.4f}"
        )
    return "\n".join(lines) + "\n"
