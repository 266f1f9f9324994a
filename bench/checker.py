"""Answer checker: decides whether one request's answer is correct.

It trusts nothing in ``multicolor``.  Colorings are validated from the
definition, witnesses against the reference wmax set of ``reference``, and
counts and chromatic numbers against closed forms where they exist.  A
correct "not permissible" answer (None, or CLI exit 1) passes; CLI exit 2
or 3 and any exception fail.
"""

from __future__ import annotations

import json

import reference as ref
from corpus import Case, Request


def _palette(n: int, size: int) -> tuple[frozenset[int], ...]:
    return (frozenset(range(1, size + 1)),) * n


def _vertex_sets(case: Case, doc: dict) -> list[list[int]]:
    """A CLI coloring line (vertex name -> colours) as per-index lists."""
    return [doc.get(f"v{i}", []) for i in range(case.n)]


def check_coloring(case: Case, allowed, w, coloring) -> list[str]:
    return ref.coloring_violations(case.n, case.edges, allowed, w, coloring)


def check_feasibility(case: Case, w, feasible: bool) -> list[str]:
    """A yes/no permissibility answer against the reference set."""
    truth = ref.dominated(tuple(w), case.wmax)
    if truth == feasible:
        return []
    return [f"demand {list(w)} answered {'feasible' if feasible else 'infeasible'}"]


def check_witness(case: Case, w, witness) -> list[str]:
    """A dominating wmax vector returned for w, or None."""
    if witness is None:
        return check_feasibility(case, w, False)
    witness = tuple(witness)
    if not ref.leq(tuple(w), witness):
        return [f"witness {list(witness)} does not dominate {list(w)}"]
    if witness not in case.wmax:
        return [f"witness {list(witness)} is not a maximal demand vector"]
    return []


def check_oncall(case: Case, w, solutions) -> list[str]:
    """(vector, coloring) pairs: best satisfiable demands below w."""
    w = tuple(w)
    if not solutions:
        return ["no on-call solution"]
    best = ref.best_partial_norm(w, case.wmax)
    problems = []
    for u, coloring in solutions:
        u = tuple(u)
        if not ref.leq(u, w) or sum(u) != best:
            problems.append(f"on-call vector {list(u)} is not a best fallback below {list(w)}")
        problems += check_coloring(case, case.lists, u, coloring)
    if ref.dominated(w, case.wmax) and [tuple(u) for u, _ in solutions] != [w]:
        problems.append("satisfiable demand must be its own only on-call solution")
    return problems


def check_cli(case: Case, req: Request, answer) -> list[str]:
    code, out = answer
    sub = req.args[0]
    lines = out.splitlines()
    if code not in (0, 1):
        return [f"{sub} exited {code}"]
    w = case.weights
    if sub == "check":
        if code == 1:
            return check_feasibility(case, w, False) + (
                [] if lines == ["NOT PERMISSIBLE"] else ["exit 1 without NOT PERMISSIBLE"]
            )
        return check_witness(case, w, json.loads(lines[0])) if len(lines) == 1 else ["bad check output"]
    if sub == "color":
        if code == 1:
            return check_feasibility(case, w, False)
        return check_coloring(case, case.lists, w, _vertex_sets(case, json.loads(out)))
    if sub == "oncall":
        docs = [json.loads(line) for line in lines]
        return check_oncall(
            case, w, [(d["vector"], _vertex_sets(case, d["coloring"])) for d in docs]
        )
    if sub == "wmax":
        got = [tuple(json.loads(line)) for line in lines]
        return [] if got == sorted(case.wmax) else ["wmax output differs from the reference set"]
    return [f"no check for subcommand {sub!r}"]


def check_chromatic(case: Case, w, answer) -> list[str]:
    chi, lower, coloring = answer
    problems = check_coloring(case, _palette(case.n, chi), w, coloring)
    if chi < lower:
        problems.append(f"chi {chi} below its lower bound {lower}")
    clique = max([max(w, default=0)] + [w[i] + w[j] for i, j in case.edges])
    if chi < clique:
        problems.append(f"chi {chi} below the edge/vertex bound {clique}")
    odd_cycle = case.n % 2 and set(case.edges) == ref.cycle_edges(case.n)
    if odd_cycle and len(set(w)) == 1 and chi != ref.odd_cycle_chi(case.n, w[0]):
        problems.append(f"chi {chi} differs from the odd-cycle formula")
    return problems


def check_extension(case: Case, a0, c0, w, answer) -> list[str]:
    bound, coloring = answer
    problems = check_coloring(case, _palette(case.n, bound), w, coloring)
    if any(not c0[v] <= frozenset(coloring[v]) for v in range(case.n)):
        problems.append("extension does not contain the precoloring")
    if bound < a0:
        problems.append(f"bound {bound} below the base palette {a0}")
    return problems


def check_stream(case: Case, a: int, colorings) -> list[str]:
    w = (1,) * case.n
    problems = []
    for c in colorings:
        problems += check_coloring(case, _palette(case.n, a), w, c)
    distinct = {tuple(frozenset(s) for s in c) for c in colorings}
    if len(distinct) != len(colorings):
        problems.append(f"stream repeats {len(colorings) - len(distinct)} colorings")
    expected = ref.cycle_colorings(case.n, a)
    if len(distinct) != expected:
        problems.append(f"stream has {len(distinct)} distinct colorings, expected {expected}")
    return problems


def check(case: Case, req: Request, answer) -> list[str]:
    """Problems with one answer; an empty list means it is correct."""
    kind = req.kind
    if kind == "cli":
        return check_cli(case, req, answer)
    if kind == "build":
        return [] if set(answer) == case.wmax else ["wmax set differs from the reference"]
    if kind == "prune":
        return [] if set(answer) == ref.maxima(case.wmax) else ["pruned set is not the antichain"]
    if kind == "permissible":
        return check_witness(case, req.args[0], answer)
    if kind == "find":
        if answer is None:
            return check_feasibility(case, req.args[0], False)
        return check_coloring(case, case.lists, req.args[0], answer)
    if kind == "oncall":
        return check_oncall(case, req.args[0], answer)
    if kind == "chromatic":
        return check_chromatic(case, req.args[0], answer)
    if kind == "extend":
        return check_extension(case, *req.args, answer)
    if kind == "stream":
        return check_stream(case, req.args[0], answer)
    return [f"no check for request kind {kind!r}"]
