"""Command-line surface and the interpretation file format.

Format (UTF-8 text, ``#`` comments, whitespace-separated tokens)::

    concepts A B
    roles r s
    individuals a b
    features I O            # optional
    domain u v w            # one or more lines
    ind a u
    concept A v 0.7
    role r u v 0.5

Sections must appear in this order; degrees are decimal literals in (0, 1]
(explicit zeros are rejected, absence means zero).  The writer emits facts in
canonical order, so parse and write round-trip byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Degree
from .bisim import auto_partition, greatest_bisimulation
from .concepts import eval_concept, parse_concept, ConceptParseError
from .genbench import GeneratorParams, format_csv, format_table, generate, run_bench
from .minimize import MinimizeParams, approximate_minimize
from .model import (
    FuzzyInterpretation,
    Signature,
    make_interpretation,
    normalize_features,
    validate,
)


class CliInputError(ValueError):
    """Bad input file or bad command line; exits with status 1."""


def _fail(line_no: int, message: str) -> None:
    raise CliInputError(f"line {line_no}: {message}")


def parse_interpretation(text: str) -> Tuple[Signature, FuzzyInterpretation]:
    """Parse the file format into a validated signature and interpretation."""
    concepts: Optional[List[str]] = None
    roles: Optional[List[str]] = None
    individuals: Optional[List[str]] = None
    features: List[str] = []
    domain: List[str] = []
    domain_set: set = set()
    ind_map: Dict[str, str] = {}
    concept_facts: Dict[str, Dict[str, Degree]] = {}
    role_facts: Dict[str, Dict[Tuple[str, str], Degree]] = {}
    # section order: each keyword may only appear at or after its stage
    order = ["concepts", "roles", "individuals", "features", "domain", "ind", "concept", "role"]
    stage = 0

    def advance(keyword: str, line_no: int) -> None:
        nonlocal stage
        target = order.index(keyword)
        if target < stage:
            _fail(line_no, f"section {keyword!r} appears out of order")
        stage = target

    def parse_degree(token: str, line_no: int) -> Degree:
        try:
            deg = Degree(token)
        except ValueError as exc:
            _fail(line_no, str(exc))
        if deg.is_zero:
            _fail(line_no, "zero degree: omit the fact instead of writing degree 0")
        return deg

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "concepts":
            advance(keyword, line_no)
            if concepts is not None:
                _fail(line_no, "duplicate 'concepts' line")
            concepts = args
        elif keyword == "roles":
            advance(keyword, line_no)
            if roles is not None:
                _fail(line_no, "duplicate 'roles' line")
            roles = args
        elif keyword == "individuals":
            advance(keyword, line_no)
            if individuals is not None:
                _fail(line_no, "duplicate 'individuals' line")
            individuals = args
        elif keyword == "features":
            advance(keyword, line_no)
            for f in args:
                if f not in ("I", "O"):
                    _fail(line_no, f"unknown feature {f!r} (expected I or O)")
            features.extend(args)
        elif keyword == "domain":
            advance(keyword, line_no)
            domain.extend(args)
            domain_set.update(args)
        elif keyword == "ind":
            advance(keyword, line_no)
            if len(args) != 2:
                _fail(line_no, "expected: ind <individual> <element>")
            name, elem = args
            if individuals is None or name not in individuals:
                _fail(line_no, f"unknown individual name {name!r}")
            if elem not in domain_set:
                _fail(line_no, f"unknown domain element {elem!r}")
            if name in ind_map:
                _fail(line_no, f"duplicate assignment for individual {name!r}")
            ind_map[name] = elem
        elif keyword == "concept":
            advance(keyword, line_no)
            if len(args) != 3:
                _fail(line_no, "expected: concept <name> <element> <degree>")
            cname, elem, dtext = args
            if concepts is None or cname not in concepts:
                _fail(line_no, f"unknown concept name {cname!r}")
            if elem not in domain_set:
                _fail(line_no, f"unknown domain element {elem!r}")
            bucket = concept_facts.setdefault(cname, {})
            if elem in bucket:
                _fail(line_no, f"duplicate concept fact {cname} {elem}")
            bucket[elem] = parse_degree(dtext, line_no)
        elif keyword == "role":
            advance(keyword, line_no)
            if len(args) != 4:
                _fail(line_no, "expected: role <name> <source> <target> <degree>")
            rname, x, y, dtext = args
            if roles is None or rname not in roles:
                _fail(line_no, f"unknown role name {rname!r}")
            if x not in domain_set or y not in domain_set:
                _fail(line_no, f"unknown domain element in role fact {rname} {x} {y}")
            bucket = role_facts.setdefault(rname, {})
            if (x, y) in bucket:
                _fail(line_no, f"duplicate role fact {rname} {x} {y}")
            bucket[x, y] = parse_degree(dtext, line_no)
        else:
            _fail(line_no, f"unknown section keyword {keyword!r}")

    if individuals is None:
        raise CliInputError("missing 'individuals' line")
    if not domain:
        raise CliInputError("missing 'domain' line")
    try:
        signature = Signature(
            tuple(concepts or ()), tuple(roles or ()), tuple(individuals),
            normalize_features(features),
        )
        interp = make_interpretation(signature, domain, ind_map, concept_facts, role_facts)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    problems = validate(interp)
    if problems:
        raise CliInputError("; ".join(problems))
    return signature, interp


def write_interpretation(interp: FuzzyInterpretation) -> str:
    """Canonical text form: facts ordered by name index, then element index."""
    sig = interp.signature
    lines = [
        "concepts" + "".join(f" {c}" for c in sig.concept_names),
        "roles" + "".join(f" {r}" for r in sig.role_names),
        "individuals" + "".join(f" {a}" for a in sig.individual_names),
    ]
    if sig.features:
        lines.append("features" + "".join(f" {f}" for f in sorted(sig.features)))
    lines.append("domain" + "".join(f" {e}" for e in interp.domain))
    for a in sig.individual_names:
        lines.append(f"ind {a} {interp.element_name(interp.individuals[a])}")
    for cname in sig.concept_names:
        for idx, deg in interp.concept_set(cname).items():
            lines.append(f"concept {cname} {interp.element_name(idx)} {deg}")
    for rname in sig.role_names:
        for (x, y), deg in interp.role_relation(rname).items():
            lines.append(f"role {rname} {interp.element_name(x)} {interp.element_name(y)} {deg}")
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage is an input error, not an internal one
        raise CliInputError(message)


def _features_from(signature: Signature, with_i: bool, with_o: bool) -> frozenset:
    fs = set(signature.features)
    if with_i:
        fs.add("I")
    if with_o:
        fs.add("O")
    return frozenset(fs)


def _add_io_arguments(sub, include_out: bool = True) -> None:
    sub.add_argument("--in", dest="infile", default="-", help="input file or - for stdin")
    if include_out:
        sub.add_argument("--out", dest="outfile", default="-", help="output file or - for stdout")
    sub.add_argument("--with-i", action="store_true", help="enable inverse roles")
    sub.add_argument("--with-o", action="store_true", help="enable nominals")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzymin", description="Fuzzy interpretation minimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minimize", help="minimize an interpretation")
    _add_io_arguments(p_min)
    p_min.add_argument("--gamma", default="1", help="preservation threshold in (0,1], default 1")
    p_min.add_argument("--verbose", action="store_true", help="stream the per-step narrative to stderr")

    p_bisim = sub.add_parser("bisim", help="greatest bisimulation against another interpretation")
    _add_io_arguments(p_bisim, include_out=False)
    p_bisim.add_argument("--other", required=True, help="file with the second interpretation")

    p_part = sub.add_parser("partition", help="partition induced by the greatest auto-bisimulation")
    _add_io_arguments(p_part, include_out=False)

    p_eval = sub.add_parser("eval", help="evaluate a concept expression")
    _add_io_arguments(p_eval, include_out=False)
    p_eval.add_argument("--concept", required=True, help="concept expression text")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    for name in ("k", "n_per", "m_per", "o_per", "p_per", "l", "sCN", "sRN", "acyclic", "withI", "withO"):
        p_gen.add_argument(name, type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", dest="outfile", default="-")

    p_bench = sub.add_parser("bench", help="run the benchmark harness")
    p_bench.add_argument("--spec", required=True, help="file of parameter rows (11 integers each)")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--gamma", default="1")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", default=None, help="also write CSV to this path")
    return parser


def _parse_gamma(text: str) -> Degree:
    try:
        gamma = Degree(text)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if gamma.is_zero:
        raise CliInputError("gamma must lie in (0, 1]")
    return gamma


def _cmd_minimize(args) -> int:
    signature, interp = parse_interpretation(_read_input(args.infile))
    gamma = _parse_gamma(args.gamma)
    features = _features_from(signature, args.with_i, args.with_o)
    narrate = (lambda line: print(line, file=sys.stderr)) if args.verbose else None
    result = approximate_minimize(interp, MinimizeParams(features, gamma), narrate=narrate)
    _write_output(args.outfile, write_interpretation(result.reduced))
    if args.verbose:
        print(
            f"kept {result.n1} of {result.source_n} elements "
            f"({result.reduction * 100:.1f}% reduction), {result.m1} role instances",
            file=sys.stderr,
        )
    return 0


def _cmd_bisim(args) -> int:
    signature, interp = parse_interpretation(_read_input(args.infile))
    _, other = parse_interpretation(_read_input(args.other))
    features = _features_from(signature, args.with_i, args.with_o)
    if not interp.signature.same_names(other.signature):
        raise CliInputError("the two interpretations use different signatures")
    result = greatest_bisimulation(interp, other, features)
    out = []
    for (x, y), deg in result.Z.items():
        out.append(f"{interp.element_name(x)} {other.element_name(y)} {deg}")
    degree = min(
        result.Z.value(interp.individual_element(a), other.individual_element(a))
        for a in signature.individual_names
    )
    out.append(f"bisimilarity {degree}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_partition(args) -> int:
    signature, interp = parse_interpretation(_read_input(args.infile))
    features = _features_from(signature, args.with_i, args.with_o)
    partition, _ = auto_partition(interp, features)
    sys.stdout.write(partition.render() + "\n")
    return 0


def _cmd_eval(args) -> int:
    signature, interp = parse_interpretation(_read_input(args.infile))
    features = _features_from(signature, args.with_i, args.with_o)
    gated = Signature(
        signature.concept_names, signature.role_names, signature.individual_names, features
    )
    try:
        concept = parse_concept(args.concept, gated)
    except ConceptParseError as exc:
        raise CliInputError(f"bad concept expression: {exc}") from None
    values = eval_concept(concept, interp)
    lines = [f"{interp.element_name(i)}:{deg}" for i, deg in values.items()]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_gen(args) -> int:
    params = GeneratorParams(
        k=args.k, n_per=args.n_per, m_per=args.m_per, o_per=args.o_per,
        p_per=args.p_per, l=args.l, sCN=args.sCN, sRN=args.sRN,
        acyclic=bool(args.acyclic), withI=bool(args.withI), withO=bool(args.withO),
        seed=args.seed,
    )
    try:
        interp = generate(params)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    _write_output(args.outfile, write_interpretation(interp))
    return 0


def _cmd_bench(args) -> int:
    text = _read_input(args.spec)
    params_list: List[GeneratorParams] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 11:
            _fail(line_no, f"expected 11 integers, found {len(parts)}")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            _fail(line_no, "parameter rows must contain integers")
        params_list.append(
            GeneratorParams(
                k=values[0], n_per=values[1], m_per=values[2], o_per=values[3],
                p_per=values[4], l=values[5], sCN=values[6], sRN=values[7],
                acyclic=bool(values[8]), withI=bool(values[9]), withO=bool(values[10]),
                seed=args.seed + line_no,
            )
        )
    gamma = _parse_gamma(args.gamma)
    try:
        rows = run_bench(params_list, gamma, args.repeats)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    sys.stdout.write(format_table(rows))
    if args.csv:
        _write_output(args.csv, format_csv(rows))
    return 0


_COMMANDS = {
    "minimize": _cmd_minimize,
    "bisim": _cmd_bisim,
    "partition": _cmd_partition,
    "eval": _cmd_eval,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; exit status 0 on success, 1 on input errors, 2 on internal failures."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
