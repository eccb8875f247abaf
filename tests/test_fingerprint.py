"""One SHA-256 over everything the program writes or returns, pinned to the
value the code gave before relations stored scaled integers.

It covers the CLI's ``partition``, ``minimize`` at gamma 1, 0.7 and 0.4 with
and without ``--verbose`` (stdout and stderr), and ``bisim`` of the input
against each output, plus the minimization traces and degree levels, the
witness bisimulations and their checks, and the bisimilarity degrees, on the
named instances under every feature set and on a dozen generated instances.
A change that alters one byte of any of them changes the digest; locate it by
comparing ``transcript()`` before and after.
"""

import contextlib
import hashlib
import io

from fuzzymin.cli import main, parse_interpretation, write_interpretation
from fuzzymin.bisim import bisimilarity_degree, check_bisimulation
from fuzzymin.genbench import GeneratorParams, generate
from fuzzymin.minimize import MinimizeParams, approximate_minimize, construct_witness
from instances import layered_cycles, research_network, twin_stars, two_chains
from strategies import FEATURE_SETS

GAMMAS = ("1", "0.7", "0.4")

DIGEST = "af830141db783a2a78bc69f19fee8023fe559b4e5f9fae4c402491f755ce791f"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return f"$ {' '.join(argv)}\nstatus {status}\n{out.getvalue()}--\n{err.getvalue()}"


def instances():
    """(label, file text, extra CLI flags, features) for each case."""
    for build in (twin_stars, layered_cycles, two_chains, research_network):
        text = write_interpretation(build())
        for features in FEATURE_SETS:
            flags = ["--with-i"] * ("I" in features) + ["--with-o"] * ("O" in features)
            yield f"{build.__name__} {''.join(sorted(features))}", text, flags, features
    for seed in range(12):
        n = 10 + seed
        params = GeneratorParams(
            k=2 + seed % 2, n_per=n, m_per=3 * n, o_per=2, p_per=3, l=3 + seed % 4, sCN=2,
            sRN=1 + seed % 2, acyclic=seed % 4 != 3, withI=bool(seed & 1), withO=bool(seed & 2), seed=seed,
        )
        yield f"generated {seed}", write_interpretation(generate(params)), [], params.features()


def transcript(tmp_path):
    parts = []
    for label, text, flags, features in instances():
        source = tmp_path / "in.txt"
        source.write_text(text, encoding="utf-8")
        parts.append(f"== {label}\n")
        parts.append(run(["partition", "--in", str(source), *flags]))
        _, interp = parse_interpretation(text)
        features = frozenset(interp.signature.features) | features
        for gamma in GAMMAS:
            reduced = tmp_path / "out.txt"
            for verbose in ([], ["--verbose"]):
                parts.append(run(["minimize", "--in", str(source), "--out", str(reduced),
                                  "--gamma", gamma, *flags, *verbose]))
                parts.append(reduced.read_text(encoding="utf-8"))
            parts.append(run(["bisim", "--in", str(source), "--other", str(reduced), *flags]))
            params = MinimizeParams(features, gamma)
            result = approximate_minimize(interp, params)
            witness = construct_witness(interp, result, params)
            parts.append(f"{result.trace.added!r}\n{result.trace.degree_levels!r}\n")
            parts.append(f"{witness!r}\n{check_bisimulation(witness, interp, result.reduced, features)!r}\n")
            parts.append(f"degree {bisimilarity_degree(interp, result.reduced, features)}\n")
    return "".join(parts).replace(str(tmp_path), "<tmp>")


def test_outputs_match_the_recorded_digest(tmp_path):
    assert hashlib.sha256(transcript(tmp_path).encode()).hexdigest() == DIGEST
