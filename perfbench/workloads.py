"""The benchmark's workloads and the instances they are built from.

Each workload is one instance per seed, minimized at one or more gamma
values; the rows, gammas, default seeds and the n1 values recorded for them
live in ``spec.json`` next to this file.  Import after ``fuzzymin`` is on
``sys.path``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from fuzzymin import genbench
from fuzzymin.core import Degree
from fuzzymin.model import FuzzyInterpretation, Signature, make_interpretation

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"


def build_chain(seed: int, n: int, palette_size: int) -> FuzzyInterpretation:
    """Alternating-degree chain c0 -> c1 -> ... -> c(n-1) over the one role r.

    Two distinct degrees, drawn from ``degree_palette(palette_size)`` by the
    seed, alternate along the edges.  Individual ``a`` names the head and
    concept ``A`` holds at the tail with degree 1.  The tail's label reaches
    the head one edge per refinement sweep, so the sweeps grow with n.
    """
    rng = random.Random(seed)
    first, second = rng.sample(genbench.degree_palette(palette_size), 2)
    domain = [f"c{i}" for i in range(n)]
    edges = {
        (domain[i], domain[i + 1]): first if i % 2 == 0 else second
        for i in range(n - 1)
    }
    signature = Signature(("A",), ("r",), ("a",), frozenset())
    return make_interpretation(
        signature, domain, {"a": domain[0]}, {"A": {domain[-1]: Degree(1)}}, {"r": edges}
    )


def _generator(row: str) -> Callable[[int], FuzzyInterpretation]:
    """Builder for a ``fuzzymin gen`` row: k n_per m_per o_per p_per l sCN sRN acyclic withI withO."""
    k, n_per, m_per, o_per, p_per, l, s_cn, s_rn, acyclic, with_i, with_o = map(int, row.split())

    def build(seed: int) -> FuzzyInterpretation:
        return genbench.generate(
            genbench.GeneratorParams(
                k, n_per, m_per, o_per, p_per, l, s_cn, s_rn,
                bool(acyclic), bool(with_i), bool(with_o), seed,
            )
        )

    return build


@dataclass(frozen=True)
class Workload:
    name: str
    builder: str  # span name for the instance builder
    build: Callable[[int], FuzzyInterpretation]
    gammas: Tuple[Degree, ...]
    default_seed: int
    default_n1: Tuple[int, ...]
    min_sweeps: int  # refinement sweeps the instance must force, 0 for no floor

    def recorded_n1(self, seed: int) -> Optional[Tuple[int, ...]]:
        """n1 per gamma from fresh-partition runs, known for the default seed only."""
        return self.default_n1 if seed == self.default_seed else None


def load_workloads() -> Dict[str, Workload]:
    """The workloads ``spec.json`` describes, by name."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    out = {}
    for name, entry in spec["workloads"].items():
        if "generator" in entry:
            builder, build, min_sweeps = "genbench.generate", _generator(entry["generator"]), 0
        else:
            n, palette = entry["chain"]["n"], entry["chain"]["palette"]
            builder = "chain.build"
            build = lambda seed, n=n, palette=palette: build_chain(seed, n, palette)
            min_sweeps = n - 1
        out[name] = Workload(
            name=name,
            builder=builder,
            build=build,
            gammas=tuple(Degree(g) for g in entry["gammas"]),
            default_seed=entry["default_seed"],
            default_n1=tuple(entry["default_seed_n1"]),
            min_sweeps=min_sweeps,
        )
    return out
