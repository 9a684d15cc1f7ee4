"""Exhaustive references and shared graph builders for the test suite.

The exhaustive oracles are independent of the matching engine: they try
every edge subset (with branch-and-bound pruning) and refuse inputs above an
edge cap.  They recurse once per edge, which is why they live with the tests
and not in the package.  `iter_maximum_matchings_bounded` is the reference
for the package's enumerator: the same leaf order, decided by a fresh `nu`
at every node instead of a carried matching.  `census_certificate` is the
reference for the exhaustive artifact census: it rebuilds every encoding
with `encode_assignment` and compares it with the decoded matching;
`expected_residual` restates the residual identity it checks, the reference
for the package's `_residual_of_sat`.  `build_artifact_reference` lays the
artifact out on (x, y) points, one dict of named corners per gadget: the
reference for `build_artifact`, which lays out int keys.  `milp_big_l`
computes L(G), and `milp_ell` ell(G) of a bipartite G, by an integer
program with nu(G) from networkx: references past brute-force sizes that
need scipy.
`record_searches` and `count_searches` log the enumerator's calls of the
package's one augmentation entry, `_augment`, for the tests that pin how
many searches it runs; `took_short_path` is their rule for telling a call
that took a path of length 1 or 3 from one that searched, and `mates_near`
the few mates it reads of the array before the call.
`augment_reference` is the reference for `_augment`: with lo = 0 the package
must do what this search alone does, its check for a short path included.
`blossom_reference` is the reference for `_blossom`: a greedy pass and one
`augment_reference` per free root.
`adjacency_by_sorted_edges` and `degree_profile_by_edges` are the references
for `Graph.adjacency` and `degree_profile`: one walks the globally sorted edge
list, the other counts edge endpoints.
`record_lines_reference` is the reference for `graph.records`: it splits the
whole text into lines at once, and each line into fields by `re.split`.
"""

from __future__ import annotations

import importlib
import itertools
import random
import re

from resmatch.graph import Graph, build_graph, delete_edges
from resmatch.matching import Matching, nu, validate_matching
from resmatch.reduction import (
    Assignment,
    Certificate,
    CnfInstance,
    MatchingCensus,
    ReductionArtifact,
    ResidualCheck,
    StructuralDecodeError,
    all_assignments,
    decode_matching,
    encode_assignment,
    parse_dimacs,
    sat_count,
    verify_artifact,
)
from resmatch.spectrum import _iter_maximum_matchings


class CapExceededError(RuntimeError):
    """An exhaustive oracle refused an input above its size cap."""


def nu_bruteforce(g: Graph, cap: int = 24) -> int:
    """Exhaustive maximum matching size; refuses graphs above the edge cap."""
    if g.edge_count > cap:
        raise CapExceededError(f"graph has {g.edge_count} edges, cap is {cap}")
    edges = g.sorted_edges()
    total = len(edges)
    best = 0
    used: set[int] = set()

    def rec(idx: int, size: int):
        nonlocal best
        if size > best:
            best = size
        while idx < total and (edges[idx][0] in used or edges[idx][1] in used):
            idx += 1
        if idx == total or size + (total - idx) <= best:
            return
        u, v = edges[idx]
        used.add(u)
        used.add(v)
        rec(idx + 1, size + 1)
        used.discard(u)
        used.discard(v)
        rec(idx + 1, size)

    rec(0, 0)
    return best


def iter_all_matchings(g: Graph):
    """Yield every matching of g (including the empty one) as a frozenset."""
    edges = g.sorted_edges()
    total = len(edges)
    current: list[tuple[int, int]] = []
    used: set[int] = set()

    def rec(idx: int):
        yield frozenset(current)
        for i in range(idx, total):
            u, v = edges[i]
            if u in used or v in used:
                continue
            current.append(edges[i])
            used.update((u, v))
            yield from rec(i + 1)
            current.pop()
            used.difference_update((u, v))

    yield from rec(0)


def nu_k_bruteforce(g: Graph, k: int, cap: int = 20) -> int:
    """Exact max size of a k-edge-colorable subgraph by exhaustive search.

    Tries every assignment of colors (or none) to edges, pruning on the
    remaining-edge bound and breaking color symmetry.  Refuses hosts above
    the edge cap.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if g.edge_count > cap:
        raise CapExceededError(f"graph has {g.edge_count} edges, cap is {cap}")
    if k == 0:
        return 0
    edges = g.sorted_edges()
    total = len(edges)
    mask = [0] * (g.vertex_count + 1)
    best = 0

    def rec(idx: int, size: int, used_colors: int):
        nonlocal best
        if size > best:
            best = size
        if idx == total or size + (total - idx) <= best:
            return
        u, v = edges[idx]
        for c in range(min(k, used_colors + 1)):
            bit = 1 << c
            if not (mask[u] & bit) and not (mask[v] & bit):
                mask[u] |= bit
                mask[v] |= bit
                rec(idx + 1, size + 1, max(used_colors, c + 1))
                mask[u] ^= bit
                mask[v] ^= bit
        rec(idx + 1, size, used_colors)

    rec(0, 0, 0)
    return best


def residual(g: Graph, f: Matching) -> int:
    """nu(g - F), cold: a fresh blossom on g less the edges of f."""
    return nu(delete_edges(g, f))


def spectrum_double_brute(g: Graph) -> tuple[int, list[int]]:
    """nu and the sorted achieved residuals: enumerate every matching, keep
    the maximum ones, and brute-force the residual matching number of each
    deletion."""
    matchings = list(iter_all_matchings(g))
    best = max((len(m) for m in matchings), default=0)
    residuals = sorted(
        {nu_bruteforce(delete_edges(g, frozenset(m))) for m in matchings if len(m) == best}
    )
    return best, residuals


def _nu_networkx(g: Graph) -> int:
    """nu(g) by networkx's maximum-cardinality matching, no engine call."""
    import networkx as nx

    host = nx.Graph(list(g.edges))
    return len(nx.max_weight_matching(host, maxcardinality=True))


def milp_big_l(g: Graph) -> int:
    """L(g) by an integer program (scipy's `milp`), with no enumeration and no
    engine call: binary x and y over the edges, each a matching, with
    x_e + y_e <= 1 and sum(x) = nu(g) (from networkx), so that x is a maximum
    matching; maximize sum(y).  The objective is at most |E|, so the solver's
    default relative gap is below one unit on every graph under 10^4 edges."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    edges = g.sorted_edges()
    m = len(edges)
    if not m:  # milp needs a variable
        return 0
    rows = np.zeros((2 * g.vertex_count + m, 2 * m))
    for i, (u, v) in enumerate(edges):
        for w in (u, v):  # vertex w meets at most one x edge (row w - 1) and one y edge
            rows[w - 1, i] = rows[g.vertex_count + w - 1, m + i] = 1
        rows[2 * g.vertex_count + i, [i, m + i]] = 1
    size = np.concatenate([np.ones(m), np.zeros(m)])  # sum(x)
    nu_g = _nu_networkx(g)
    weights = np.concatenate([np.zeros(m), np.full(m, -1.0)])  # milp minimizes
    result = milp(weights, constraints=[LinearConstraint(rows, ub=1),
                                        LinearConstraint(size, lb=nu_g, ub=nu_g)],
                  integrality=np.ones(2 * m), bounds=(0, 1))
    assert result.success, result.message
    return round(sum(result.x[m:]))


def milp_ell(g: Graph) -> int:
    """ell(g) of a bipartite g by an integer program (scipy's `milp`), with no
    enumeration and no engine call.  By Koenig, nu(g - F) is the size of a
    smallest vertex cover of g - F, so ell is the least sum(c) over binary x
    on the edges and c on the vertices where x is a matching with
    sum(x) = nu(g) (from networkx) and x_e + c_u + c_v >= 1 on every edge
    (u, v).  The objective is at most |V|, so the solver's default relative
    gap is below one unit on every graph under 10^4 vertices."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    edges = g.sorted_edges()
    n, m = g.vertex_count, len(edges)
    if not m:  # milp needs an edge variable; an edgeless graph has ell 0
        return 0
    matched = np.zeros((n, m + n))  # row w - 1: vertex w meets at most one x edge
    covered = np.zeros((m, m + n))  # row i: edge i is in x or has a covered end
    for i, (u, v) in enumerate(edges):
        matched[[u - 1, v - 1], i] = 1
        covered[i, [i, m + u - 1, m + v - 1]] = 1
    size = np.concatenate([np.ones(m), np.zeros(n)])  # sum(x)
    nu_g = _nu_networkx(g)
    weights = np.concatenate([np.zeros(m), np.ones(n)])
    result = milp(weights, constraints=[LinearConstraint(matched, ub=1),
                                        LinearConstraint(covered, lb=1),
                                        LinearConstraint(size, lb=nu_g, ub=nu_g)],
                  integrality=np.ones(m + n), bounds=(0, 1))
    assert result.success, result.message
    return round(sum(result.x[m:]))


def iter_maximum_matchings_bounded(g: Graph):
    """Yield (F, nu(g - F)) for every maximum matching F of g, in the
    package enumerator's order: branch on the lowest remaining edge, take it
    before dropping it, and prune a node when a maximum matching of its
    remaining edges cannot reach nu(g).  The package branches on the lowest
    undecided vertex instead, matching it to each neighbour in increasing
    order before leaving it unmatched, which reaches the leaves in this
    order."""
    target = nu(g)
    n = g.vertex_count
    stack = [((), g.sorted_edges())]
    while stack:
        chosen, avail = stack.pop()
        if len(chosen) == target:
            m = frozenset(chosen)
            yield m, residual(g, m)
            continue
        if len(chosen) + len(avail) < target:
            continue
        if len(chosen) + nu(Graph(n, frozenset(avail))) < target:
            continue
        (u, v), rest = avail[0], avail[1:]
        stack.append((chosen, rest))
        stack.append((chosen + ((u, v),), [f for f in rest if u not in f and v not in f]))


def augment_reference(adj, match, root: int, lo: int, arrays) -> bool:
    """The reference for `resmatch.matching._augment`: the same single-root
    blossom search, written plainly.  A head index walks the queue, every
    edge test reads base[v] afresh, and each contraction collects the bases
    of its petals in a set.  The package's search must agree with it on the
    return value, the mate array and the reset scratch arrays."""
    even, p, base, mark, skip = arrays
    even[root] = True
    tree = [root]
    queue = [root]
    head = end = 0
    while head < len(queue) and end == 0:
        v = queue[head]
        head += 1
        mate, hidden = match[v], skip[v]
        for to in adj[v]:
            if base[v] == base[to] or to == mate or to == hidden or to <= lo or lo and skip[to]:
                continue
            if to == root or (match[to] != 0 and p[match[to]] != 0):
                mark[0] += 1
                stamp = mark[0]
                x = v
                while True:
                    x = base[x]
                    mark[x] = stamp
                    if match[x] == 0:
                        break
                    x = p[match[x]]
                curbase = base[to]
                while mark[curbase] != stamp:
                    curbase = base[p[match[curbase]]]
                petals = set()
                for x, child in ((v, to), (to, v)):
                    while base[x] != curbase:
                        petals.update((base[x], base[match[x]]))
                        p[x] = child
                        child = match[x]
                        x = p[child]
                grown = []
                for i in tree:
                    if base[i] in petals:
                        base[i] = curbase
                        if not even[i]:
                            even[i] = True
                            grown.append(i)
                grown.sort()
                queue += grown
            elif p[to] == 0:
                p[to] = v
                tree.append(to)
                if match[to] == 0:
                    end = to
                    break
                even[match[to]] = True
                tree.append(match[to])
                queue.append(match[to])
    found = end != 0
    while end != 0:
        pv = p[end]
        ppv = match[pv]
        match[end] = pv
        match[pv] = end
        end = ppv
    for x in tree:
        even[x] = False
        p[x] = 0
        base[x] = x
    return found


def blossom_reference(n: int, adj, order, arrays) -> list[int]:
    """The reference for `resmatch.matching._blossom`: its greedy pass over
    order, then one `augment_reference` search from each still-free root in
    order that has a neighbour, without the package's check for a path of
    length 1 or 3 inside `_augment` and without its stop at a known size.
    The package must return the same mate array."""
    match = [0] * (n + 1)
    for v in order:
        if match[v] == 0:
            for to in adj[v]:
                if match[to] == 0:
                    match[v] = to
                    match[to] = v
                    break
    for root in order:
        if match[root] == 0 and adj[root]:
            augment_reference(adj, match, root, 0, arrays)
    return match


def mates_near(adj, match, root) -> dict[int, int]:
    """The mates of root's neighbours and of their mates' neighbours: all of
    the mate array before an `_augment` from root that `took_short_path`
    reads, at the cost of a degree or two rather than of the whole array."""
    near = {x: match[x] for x in adj[root]}
    for y in list(near.values()):
        if y:
            near.update((w, match[w]) for w in adj[y])
    return near


def took_short_path(before, after, root) -> bool:
    """Whether an `_augment` with lo = 0 from the free vertex root, which
    turned the mate array before into after, took a path of length 1 or 3
    and ran no search.  before is the whole array or its `mates_near`.

    An augmenting path root - x = y - w ... gives root the new mate x and
    x's old mate y the new mate w.  It has length 1 exactly when x was free,
    and length 3 exactly when w was free: otherwise it goes on along w's old
    matched edge.  A failed call writes nothing, so root is still free.  The
    check for a short path tries every one from the root, so any other path
    came from the search."""
    x = after[root]
    if not x:
        return False
    y = before[x]
    return not y or not before[after[y]]


def record_searches(monkeypatch, g):
    """The (matching, residual) stream of g and (kind, root, found) of each
    single-root search the enumerator made while branching, in order: kind
    'branch' for an `_augment` above a threshold lo > 0; an `_augment` of the
    carried residual matching (lo = 0, the whole graph) first checks for a
    path of length 1 or 3, logged as 'short' with whether it took one, and
    if it did not, searches, logged next as 'repair'.  On a g with fixed
    edges the root completes that matching from the fixed ends before it
    branches: those checks and searches come first.  The root blossom's own
    calls are not seen: `_blossom` calls the engine's name, not the
    enumerator's."""
    enumerator = importlib.import_module("resmatch.spectrum")
    searches = []
    search = enumerator._augment

    def recorded(adj, match, root, lo, arrays):
        before = None if lo else mates_near(adj, match, root)
        found = search(adj, match, root, lo, arrays)
        if lo:
            searches.append(("branch", root, found))
        else:
            short = took_short_path(before, match, root)
            searches.append(("short", root, short))
            if not short:
                searches.append(("repair", root, found))
        return found

    monkeypatch.setattr(enumerator, "_augment", recorded)
    items = [(list(chosen), r) for chosen, r in enumerator._iter_maximum_matchings(g)]
    return items, searches


def count_searches(monkeypatch, g):
    """(maximum matchings, branching searches, repair searches, short repair
    checks) of g.  The enumerator's own searches see the vertices above a
    threshold lo > 0; the repairs of the carried residual matching see the
    whole graph (lo = 0): each such call counts one check for a path of
    length 1 or 3, and one repair search too if the check found none."""
    items, searches = record_searches(monkeypatch, g)
    kinds = [kind for kind, _, _ in searches]
    return len(items), kinds.count("branch"), kinds.count("repair"), kinds.count("short")


# (corner, corner, edge role) inside every gadget of the reference layout;
# the feed from u22 depends on the polarity and is added next to them
_GADGET_EDGES = (
    ("u11", "u12", "u"),
    ("u21", "u22", "u"),
    ("u12", "v21", "feed"),
    ("v21", "v22", "port"),
    ("v22", "v12", "port"),
    ("v11", "v12", "port"),
)


def _gadget_cells(i: int, j: int, positive: bool) -> dict[str, tuple[int, int]]:
    left, right = 4 * i - 1, 4 * i
    cells = {"v21": (left, 4 * j - 1), "v22": (right, 4 * j - 1),
             "v11": (left, 4 * j), "v12": (right, 4 * j)}
    if positive:
        cells.update(u11=(left, 4 * j - 3), u21=(right, 4 * j - 3),
                     u12=(left, 4 * j - 2), u22=(right, 4 * j - 2))
    else:
        cells.update(u11=(4 * i - 3, 4 * j - 1), u12=(4 * i - 2, 4 * j - 1),
                     u21=(4 * i - 3, 4 * j), u22=(4 * i - 2, 4 * j))
    return cells


def build_artifact_reference(cnf: CnfInstance, variant: str) -> ReductionArtifact:
    """The artifact laid out on (x, y) lattice points, one dict of named
    corners per gadget: the reference for `build_artifact`, which lays out
    integer keys.  It makes none of the layout checks."""
    m, n = cnf.num_clauses, cnf.num_vars
    points = [(-1, y) for y in range(1, 4 * m + 1)]
    triples = [(a, b, "spine" if k % 2 else "path")
               for k, (a, b) in enumerate(zip(points, points[1:]))]
    gadget_cells = {}
    occurrences: dict[int, list] = {i: [] for i in range(1, n + 1)}
    for j, clause in enumerate(cnf.clauses, start=1):
        for t, lit in enumerate(clause, start=1):
            cells = _gadget_cells(abs(lit), j, lit > 0)
            points += cells.values()
            triples += [(cells[a], cells[b], role) for a, b, role in _GADGET_EDGES]
            triples.append((cells["u22"], cells["v22" if lit > 0 else "v11"], "feed"))
            gadget_cells[(j, t)] = cells
            occurrences[abs(lit)].append((j, t))
        if variant == "L":
            low0, low1, high0, high1 = column = [(0, y) for y in range(4 * j - 3, 4 * j + 1)]
            points += column
            triples += [(low0, low1, "column"), (high0, high1, "column")]
            for t in (1, 2, 3):
                v12 = gadget_cells[(j, t)]["v12"]
                triples += [(low0, v12, "rail"), (high0, v12, "rail")]
        else:
            for t in (1, 2):
                dst = gadget_cells[(j, t + 1)]["v11" if clause[t] > 0 else "v22"]
                triples.append((gadget_cells[(j, t)]["v12"], dst, "link"))
    triples += [((-1, 4 * j - 2), gadget_cells[(j, 1)]["u11"], "anchor") for j in range(1, m + 1)]
    cycle_pts = []
    for i in range(1, n + 1):
        occs = occurrences[i]
        vertical, horizontal = [], []
        for idx, key in enumerate(occs):
            cells = gadget_cells[key]
            nxt = gadget_cells[occs[(idx + 1) % len(occs)]]
            horizontal += [(cells["v21"], cells["v22"]), (cells["v12"], cells["v11"])]
            vertical += [(cells["v22"], cells["v12"]), (cells["v11"], nxt["v21"])]
            triples.append((cells["v11"], nxt["v21"], "join"))
        cycle_pts.append((vertical, horizontal) if variant == "L" else (horizontal, vertical))
    order = sorted(points)
    ids = dict(zip(order, range(1, len(order) + 1)))

    def id_edge(a, b):
        return (ids[a], ids[b]) if a < b else (ids[b], ids[a])

    roles = {id_edge(a, b): role for a, b, role in triples}
    return ReductionArtifact(
        graph=Graph(len(points), frozenset(roles), dict(enumerate(order, start=1))),
        cnf=cnf,
        variant=variant,
        roles=roles,
        cycles=tuple((frozenset(id_edge(*e) for e in t), frozenset(id_edge(*e) for e in f))
                     for t, f in cycle_pts),
    )


def expected_residual(art: ReductionArtifact, alpha: Assignment) -> int:
    """Residual matching number after deleting the encoding of alpha: 10m - 1 + sat
    on the L artifact and 11m - 1 - sat on the ell artifact, for m clauses of
    which alpha satisfies sat."""
    m, sat = art.cnf.num_clauses, sat_count(art.cnf, alpha)
    return 10 * m - 1 + sat if art.variant == "L" else 11 * m - 1 - sat


def census_certificate(art: ReductionArtifact, cap: int | None = None) -> Certificate:
    """What `verify_artifact(art, exhaustive=True)` must return, from public
    functions and the enumerator's raw stream: the structural certificate
    plus one census pass.  A matching is pure when `validate_matching` finds
    it valid and perfect and `decode_matching` reads an assignment from it;
    its check is decode_ok when `encode_assignment` of that assignment
    rebuilds it.  The first cap matchings are read, cap defaulting to the
    census cap, max(256, 8 * 2^n), by slicing the stream here, so that no
    capping code is shared with the census under test."""
    n = art.cnf.num_vars
    cert = verify_artifact(art)
    discrepancies = list(cert.discrepancies)
    cap = max(256, 8 * 2**n) if cap is None else cap
    items = list(itertools.islice(_iter_maximum_matchings(art.graph), cap + 1))
    truncated = len(items) > cap
    items = items[:cap]
    residuals = [r for _, r in items]
    pure: list[tuple] = []  # (alpha, residual, is encode(alpha))
    for chosen, r in items:
        f = frozenset(chosen)
        flags = validate_matching(art.graph, f)
        if not (flags.valid and flags.perfect):
            continue
        try:
            alpha = decode_matching(art, f)
        except StructuralDecodeError:
            continue
        pure.append((alpha, r, encode_assignment(art, alpha) == f))
    decoded = {alpha: (r, is_encoding) for alpha, r, is_encoding in pure}
    checks = []
    for alpha in all_assignments(n):
        if alpha not in decoded:
            if not truncated:
                discrepancies.append(f"residual({alpha.bits()}): no matching decodes to it")
            continue
        actual, decode_ok = decoded[alpha]
        want = expected_residual(art, alpha)
        rc = ResidualCheck(alpha.bits(), sat_count(art.cnf, alpha), want, actual, decode_ok)
        checks.append(rc)
        if not rc.ok:
            discrepancies.append(f"residual({alpha.bits()}): expected {want}, got {actual},"
                                 f" decode_ok={decode_ok}")
    encoded = [rc.actual for rc in checks]
    census = MatchingCensus(
        pure_expected=2**n,
        count=len(items),
        truncated=truncated,
        pure_count=len(pure),
        hybrid_count=len(items) - len(pure),
        residual_min=min(residuals),
        residual_max=max(residuals),
        encoded_min=min(encoded, default=None),
        encoded_max=max(encoded, default=None),
        residuals_ok=all(r == expected_residual(art, a) for a, r, _ in pure),
    )
    if census.truncated:
        discrepancies.append("census: enumeration truncated, cannot certify")
    elif census.pure_count != 2**n:
        discrepancies.append(f"census: {census.pure_count} decodable maximum matchings,"
                             f" expected {2**n}")
    if art.variant == "L" and census.hybrid_count:
        discrepancies.append(f"census: {census.hybrid_count} non-encoding maximum matchings"
                             " in a variant that forbids them")
    if not census.truncated and census.residual_min != census.encoded_min:
        discrepancies.append(f"census: residual minimum {census.residual_min} differs from"
                             f" encoded minimum {census.encoded_min}")
    if not census.residuals_ok:
        discrepancies.append("census: a decodable matching misses its residual value")
    return cert._replace(residual_checks=tuple(checks), census=census,
                         discrepancies=tuple(discrepancies))


def adjacency_by_sorted_edges(g: Graph) -> list[list[int]]:
    """Neighbour lists in increasing order: walking the edges in sorted order
    appends each vertex's smaller neighbours first, then its larger ones."""
    adj: list[list[int]] = [[] for _ in range(g.vertex_count + 1)]
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def record_lines_reference(text: str, comment: str) -> list[tuple[int, list[str], str]]:
    """(line number, fields, line stripped of blanks) for each line with a
    field whose first field does not start with comment: lines end at \\n,
    \\r\\n or \\r, and fields part at runs of space, tab, form feed and
    vertical tab."""
    out = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        fields = [f for f in re.split("[ \t\f\v]+", raw) if f]
        if fields and not fields[0].startswith(comment):
            out.append((lineno, fields, raw.strip(" \t\f\v")))
    return out


def degree_profile_by_edges(g: Graph) -> dict:
    """Min/max degree and the degree histogram as sorted (degree, count) pairs,
    from one count per edge endpoint."""
    degs = [0] * (g.vertex_count + 1)
    for u, v in g.edges:
        degs[u] += 1
        degs[v] += 1
    values = degs[1:]
    hist: dict[int, int] = {}
    for d in values:
        hist[d] = hist.get(d, 0) + 1
    return {
        "min": min(values, default=0),
        "max": max(values, default=0),
        "histogram": sorted(hist.items()),
    }


RANDOM_CNF_DRAWS = 1000  # draws of all m clauses before random_cnf gives up


def random_cnf(n: int, m: int, seed: int) -> str:
    """A seeded exact-3 CNF with n variables and m clauses that uses every
    variable: m clauses are drawn again until a draw uses them all, and a
    ValueError naming n and m ends the redraws after RANDOM_CNF_DRAWS draws
    (with m near n / 3 almost no draw covers; `covering_cnf` builds such
    shapes at once)."""
    rng = random.Random(f"{n}:{m}:{seed}")
    for _ in range(RANDOM_CNF_DRAWS):
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
                   for _ in range(m)]
        if {abs(lit) for cl in clauses for lit in cl} == set(range(1, n + 1)):
            return f"p cnf {n} {m}\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses)
    raise ValueError(f"random_cnf: none of {RANDOM_CNF_DRAWS} draws of m = {m} clauses"
                     f" used all n = {n} variables")


def covering_cnf(seed: int, num_vars: int, m: int) -> CnfInstance:
    """Exact-3-SAT with every variable used: the first clauses cover the
    variables in a shuffled order, the rest are drawn at random.  m must be
    at least num_vars / 3 (and num_vars at least 3)."""
    rng = random.Random(seed)
    order = list(range(1, num_vars + 1))
    rng.shuffle(order)
    clauses = []
    for at in range(0, num_vars, 3):
        chunk = order[at:at + 3]
        chunk += rng.sample([v for v in order if v not in chunk], 3 - len(chunk))
        clauses.append(chunk)
    while len(clauses) < m:
        clauses.append(rng.sample(order, 3))
    lines = [" ".join(str(v if rng.random() < 0.5 else -v) for v in cl) + " 0" for cl in clauses]
    return parse_dimacs(f"p cnf {num_vars} {len(clauses)}\n" + "\n".join(lines) + "\n")


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


TWIN_SPIDER = build_graph(
    10,
    [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (2, 7), (7, 8), (2, 9), (9, 10)],
)


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return build_graph(n, edges)


def random_bipartite(n, max_edges, rng):
    half = (n + 1) // 2
    pairs = [(u, v) for u in range(1, half + 1) for v in range(half + 1, n + 1)]
    rng.shuffle(pairs)
    return build_graph(n, pairs[: rng.randint(0, min(max_edges, len(pairs)))])
