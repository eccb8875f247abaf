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

from .core import Degree, FuzzyRelation, FuzzySet
from .bisim import auto_partition, greatest_bisimulation
from .concepts import eval_concept, parse_concept, ConceptParseError
from .genbench import SHAPE, GeneratorParams, format_csv, format_table, generate, run_bench
from .minimize import MinimizeParams, approximate_minimize
from .model import (
    FuzzyInterpretation,
    Signature,
    normalize_features,
    validate,
)


class CliInputError(ValueError):
    """Bad input file or bad command line; exits with status 1."""


def _fail(line_no: int, message: str) -> None:
    raise CliInputError(f"line {line_no}: {message}")


# section order: each keyword may only appear at or after its stage
_STAGE = {
    keyword: stage
    for stage, keyword in enumerate(
        ("concepts", "roles", "individuals", "features", "domain", "ind", "concept", "role")
    )
}


def parse_interpretation(text: str) -> Tuple[Signature, FuzzyInterpretation]:
    """Parse the file format into a validated signature and interpretation.

    Each fact is checked once, on its own line, and stored under element
    indices, so the interpretation is assembled without checking it again.
    A line is split once; only a line holding ``#`` has its comment cut
    first.  Role lines, the bulk of a file, are dispatched before the
    section lookup: ``role`` is the last section, so a role line can never
    be out of order, and a later line of any other section is caught by the
    lookup as before.
    """
    concepts: Optional[List[str]] = None
    roles: Optional[List[str]] = None
    individuals: Optional[List[str]] = None
    features: List[str] = []
    domain: List[str] = []
    index: Dict[str, int] = {}
    ind_map: Dict[str, int] = {}
    concept_facts: Dict[str, Dict[int, int]] = {}
    role_facts: Dict[str, Dict[int, Dict[int, int]]] = {}
    stage = 0

    # each distinct literal is parsed once, on a miss in ``parsed``; bad ones
    # are never stored, so a repeat fails again on its own line
    parsed: Dict[str, int] = {}

    def parse_degree(token: str, line_no: int) -> int:
        try:
            scaled = Degree(token).scaled
        except ValueError as exc:
            _fail(line_no, str(exc))
        if not scaled:
            _fail(line_no, "zero degree: omit the fact instead of writing degree 0")
        parsed[token] = scaled
        return scaled

    role_stage = _STAGE["role"]
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "role":
            # the last section, so a role line is never out of order
            stage = role_stage
            if len(tokens) != 5:
                _fail(line_no, "expected: role <name> <source> <target> <degree>")
            _, rname, x, y, dtext = tokens
            bucket = role_facts.get(rname)
            if bucket is None:
                if roles is None or rname not in roles:
                    _fail(line_no, f"unknown role name {rname!r}")
                bucket = role_facts[rname] = {}
            i, j = index.get(x), index.get(y)
            if i is None or j is None:
                _fail(line_no, f"unknown domain element in role fact {rname} {x} {y}")
            row = bucket.get(i)
            if row is None:
                row = bucket[i] = {}
            elif j in row:
                _fail(line_no, f"duplicate role fact {rname} {x} {y}")
            deg = parsed.get(dtext)
            row[j] = deg if deg is not None else parse_degree(dtext, line_no)
            continue
        target = _STAGE.get(keyword)
        if target is None:
            _fail(line_no, f"unknown section keyword {keyword!r}")
        if target < stage:
            _fail(line_no, f"section {keyword!r} appears out of order")
        stage = target
        args = tokens[1:]
        if keyword == "concepts":
            if concepts is not None:
                _fail(line_no, "duplicate 'concepts' line")
            concepts = args
        elif keyword == "roles":
            if roles is not None:
                _fail(line_no, "duplicate 'roles' line")
            roles = args
        elif keyword == "individuals":
            if individuals is not None:
                _fail(line_no, "duplicate 'individuals' line")
            individuals = args
        elif keyword == "features":
            for f in args:
                if f not in ("I", "O"):
                    _fail(line_no, f"unknown feature {f!r} (expected I or O)")
            features.extend(args)
        elif keyword == "domain":
            index.update(zip(args, range(len(domain), len(domain) + len(args))))
            domain.extend(args)
        elif keyword == "ind":
            if len(args) != 2:
                _fail(line_no, "expected: ind <individual> <element>")
            name, elem = args
            if individuals is None or name not in individuals:
                _fail(line_no, f"unknown individual name {name!r}")
            if elem not in index:
                _fail(line_no, f"unknown domain element {elem!r}")
            if name in ind_map:
                _fail(line_no, f"duplicate assignment for individual {name!r}")
            ind_map[name] = index[elem]
        else:  # concept
            if len(args) != 3:
                _fail(line_no, "expected: concept <name> <element> <degree>")
            cname, elem, dtext = args
            bucket = concept_facts.get(cname)
            if bucket is None:
                if concepts is None or cname not in concepts:
                    _fail(line_no, f"unknown concept name {cname!r}")
                bucket = concept_facts[cname] = {}
            i = index.get(elem)
            if i is None:
                _fail(line_no, f"unknown domain element {elem!r}")
            if i in bucket:
                _fail(line_no, f"duplicate concept fact {cname} {elem}")
            deg = parsed.get(dtext)
            bucket[i] = deg if deg is not None else parse_degree(dtext, line_no)

    if individuals is None:
        raise CliInputError("missing 'individuals' line")
    if not domain:
        raise CliInputError("missing 'domain' line")
    try:
        signature = Signature(
            tuple(concepts or ()), tuple(roles or ()), tuple(individuals),
            normalize_features(features),
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    if len(index) != len(domain):
        raise CliInputError("duplicate domain element names")
    # every fact passed its line's checks: nonzero, in range and unique
    n = len(domain)
    interp = FuzzyInterpretation(
        signature,
        domain,
        ind_map,
        {c: FuzzySet._trusted(n, facts) for c, facts in concept_facts.items()},
        {r: FuzzyRelation._trusted(n, n, facts.items()) for r, facts in role_facts.items()},
    )
    problems = validate(interp)
    if problems:
        raise CliInputError("; ".join(problems))
    return signature, interp


class _DegreeText(dict):
    """Scaled degree -> its literal, formatted on the first lookup."""

    def __missing__(self, scaled: int) -> str:
        text = self[scaled] = str(Degree.from_scaled(scaled))
        return text


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
    names = interp.domain
    lines.append("domain" + "".join(f" {e}" for e in names))
    for a in sig.individual_names:
        lines.append(f"ind {a} {names[interp.individuals[a]]}")
    # each distinct degree is formatted once; a relation's rows are read as
    # stored, sources in order and each row sorted by target
    text = _DegreeText()
    for cname in sig.concept_names:
        entries = interp.concept_set(cname)._entries
        for x in sorted(entries):
            lines.append(f"concept {cname} {names[x]} {text[entries[x]]}")
    for rname in sig.role_names:
        for x, row in enumerate(interp.role_relation(rname)._fwd):
            for y, scaled in row.items():
                lines.append(f"role {rname} {names[x]} {names[y]} {text[scaled]}")
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    """The text of a file, or of stdin for "-", decoded strictly as UTF-8
    whatever the locale."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliInputError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


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
    for name in SHAPE:
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
    out = [f"{interp.element_name(x)} {other.element_name(y)} {deg}" for (x, y), deg in result.Z.items()]
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
    params = GeneratorParams.from_row([getattr(args, name) for name in SHAPE], args.seed)
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
        params_list.append(GeneratorParams.from_row(values, args.seed + line_no))
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
