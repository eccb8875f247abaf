"""The dense Godel-semantics evaluator, kept as the reference for the sparse
one in ``fuzzymin.concepts``.

Every concept value is a list of n scaled ints and every role value an n x n
matrix (a list of lists); ``;`` is the cubic max-min product and ``*`` is
found by repeated squaring.  ``rst_closure_reference`` is the all-pairs
max-min relaxation that ``fuzzymin.core.rst_closure`` replaced.  Nothing here
shares code with the evaluator or the closure it checks.
"""

from fuzzymin.concepts import (
    And,
    ConceptName,
    Constant,
    Exists,
    Forall,
    Implies,
    Nominal,
    Or,
    RoleCompose,
    RoleInverse,
    RoleName,
    RoleStar,
    RoleTest,
    RoleUnion,
)
from fuzzymin.core import Degree, FuzzyRelation, SCALE


def _maxmin_product(a, b):
    n = len(a)
    return [[max(min(a[i][k], b[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]


def _elementwise(op, a, b):
    return [list(map(op, x, y)) for x, y in zip(a, b)]


def _concept_vector(fset, n):
    vec = [0] * n
    for k, d in fset.items():
        vec[k] = d.scaled
    return vec


def _role_matrix(rel, n):
    mat = [[0] * n for _ in range(n)]
    for (i, j), d in rel.items():
        mat[i][j] = d.scaled
    return mat


def role_matrix(node, interp, cache):
    key = ("role", node)
    got = cache.get(key)
    if got is not None:
        return got
    n = interp.n
    if isinstance(node, RoleName):
        out = _role_matrix(interp.role_relation(node.name), n)
    elif isinstance(node, RoleUnion):
        out = _elementwise(max, role_matrix(node.left, interp, cache), role_matrix(node.right, interp, cache))
    elif isinstance(node, RoleCompose):
        out = _maxmin_product(role_matrix(node.left, interp, cache), role_matrix(node.right, interp, cache))
    elif isinstance(node, RoleStar):
        m = role_matrix(node.inner, interp, cache)
        out = [row[:] for row in m]
        for i in range(n):
            out[i][i] = SCALE  # zero-length paths
        while True:
            squared = _elementwise(max, out, _maxmin_product(out, out))
            if squared == out:
                break
            out = squared
    elif isinstance(node, RoleTest):
        vec = concept_vector(node.concept, interp, cache)
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = vec[i]
    elif isinstance(node, RoleInverse):
        inner = role_matrix(node.inner, interp, cache)
        out = [[inner[j][i] for j in range(n)] for i in range(n)]
    else:
        raise TypeError(f"not a role node: {node!r}")
    cache[key] = out
    return out


def concept_vector(node, interp, cache):
    key = ("concept", node)
    got = cache.get(key)
    if got is not None:
        return got
    n = interp.n
    if isinstance(node, Constant):
        out = [node.degree.scaled] * n
    elif isinstance(node, ConceptName):
        out = _concept_vector(interp.concept_set(node.name), n)
    elif isinstance(node, Nominal):
        out = [0] * n
        out[interp.individual_element(node.name)] = SCALE
    elif isinstance(node, Or):
        out = list(map(max, concept_vector(node.left, interp, cache), concept_vector(node.right, interp, cache)))
    elif isinstance(node, And):
        out = list(map(min, concept_vector(node.left, interp, cache), concept_vector(node.right, interp, cache)))
    elif isinstance(node, Implies):
        a = concept_vector(node.left, interp, cache)
        b = concept_vector(node.right, interp, cache)
        out = [SCALE if x <= y else y for x, y in zip(a, b)]
    elif isinstance(node, Exists):
        r = role_matrix(node.role, interp, cache)
        c = concept_vector(node.body, interp, cache)
        out = [max(min(r[i][j], c[j]) for j in range(n)) for i in range(n)]
    elif isinstance(node, Forall):
        r = role_matrix(node.role, interp, cache)
        c = concept_vector(node.body, interp, cache)
        residuated = [[SCALE if r[i][j] <= c[j] else c[j] for j in range(n)] for i in range(n)]
        out = [min(row) for row in residuated]
    else:
        raise TypeError(f"not a concept node: {node!r}")
    cache[key] = out
    return out


def rst_closure_reference(phi):
    """Reflexive-symmetric-min-transitive closure by all-pairs relaxation."""
    n = phi.rows
    m = _role_matrix(phi, n)
    m = [[max(m[i][j], m[j][i]) for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = SCALE
    for k in range(n):
        m = [[max(m[i][j], min(m[i][k], m[k][j])) for j in range(n)] for i in range(n)]
    return FuzzyRelation(n, n, {
        (i, j): Degree.from_scaled(m[i][j]) for i in range(n) for j in range(n) if m[i][j]})
