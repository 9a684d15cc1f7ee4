"""Independent oracles for checking resmatch outputs.

Nothing here imports resmatch.  Matching numbers come from networkx
(`max_weight_matching(maxcardinality=True)` on small graphs, Hopcroft-Karp on
bipartite artifacts); maximum matchings are enumerated by a small vertex
branching search written for the benchmark; artifact residuals use the closed
forms of the reduction with satisfied-clause counts computed here.
"""

from __future__ import annotations

import hashlib
import itertools

import networkx as nx


class CheckError(Exception):
    """An operation's output disagrees with an oracle."""


def expect(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- graphs


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The plain-text graph format, written without resmatch."""
    lines = [f"p mg {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]], dict[int, tuple[int, int]]]:
    n = 0
    edges: list[tuple[int, int]] = []
    coords: dict[int, tuple[int, int]] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            u, v = int(parts[1]), int(parts[2])
            edges.append((u, v) if u < v else (v, u))
        elif parts[0] == "v":
            coords[int(parts[1])] = (int(parts[2]), int(parts[3]))
    return n, edges, coords


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return g


def nu_general(g: nx.Graph) -> int:
    return len(nx.max_weight_matching(g, maxcardinality=True))


def nu_bipartite(g: nx.Graph, top) -> int:
    return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)) // 2


def residual(g: nx.Graph, matching) -> int:
    h = g.copy()
    h.remove_edges_from(matching)
    return nu_general(h)


def nu2_bipartite(g: nx.Graph, side0) -> int:
    """Largest subgraph of maximum degree two, by max flow (bipartite hosts)."""
    flow = nx.DiGraph()
    for v in g.nodes:
        if v in side0:
            flow.add_edge("s", v, capacity=2)
        else:
            flow.add_edge(v, "t", capacity=2)
    for u, v in g.edges:
        a, b = (u, v) if u in side0 else (v, u)
        flow.add_edge(a, b, capacity=1)
    return nx.maximum_flow_value(flow, "s", "t")


def check_matching(g: nx.Graph, pairs, size: int, what: str):
    """pairs is a matching of g with `size` edges."""
    seen: set[int] = set()
    for u, v in pairs:
        expect(g.has_edge(u, v), f"{what}: ({u}, {v}) is not an edge")
        expect(u not in seen and v not in seen, f"{what}: vertex reused at ({u}, {v})")
        seen.update((u, v))
    expect(len(pairs) == size, f"{what}: {len(pairs)} edges, maximum is {size}")


def maximum_matchings(n: int, edges, size: int):
    """Yield every matching of `size` edges (all maximum matchings when
    `size` is the matching number) by branching on the lowest free vertex."""
    adj: list[list[int]] = [[] for _ in range(n + 2)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    slack = n - 2 * size
    used = [False] * (n + 2)
    chosen: list[tuple[int, int]] = []

    def rec(v: int, unmatched: int):
        while v <= n and used[v]:
            v += 1
        if v > n:
            yield list(chosen)
            return
        if unmatched < slack:
            yield from rec(v + 1, unmatched + 1)
        used[v] = True
        for w in adj[v]:
            if w > v and not used[w]:
                used[w] = True
                chosen.append((v, w))
                yield from rec(v + 1, unmatched)
                chosen.pop()
                used[w] = False
        used[v] = False

    yield from rec(1, 0)


def exact_spectrum(n: int, edges) -> dict:
    """ell, L, achieved set and matching count by exhaustive enumeration."""
    g = nx_graph(n, edges)
    size = nu_general(g)
    achieved: set[int] = set()
    count = 0
    for m in maximum_matchings(n, edges, size):
        count += 1
        achieved.add(residual(g, m))
    return {"ell": min(achieved), "L": max(achieved), "achieved": sorted(achieved),
            "enumerated": count}


def degree_profile(n: int, edges) -> dict:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    hist: dict[int, int] = {}
    for d in deg[1:]:
        hist[d] = hist.get(d, 0) + 1
    return {"min": min(deg[1:]), "max": max(deg[1:]),
            "histogram": [list(item) for item in sorted(hist.items())]}


# ------------------------------------------------------------------- CNF


def cnf_text(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def sat_count(clauses, values: tuple[bool, ...]) -> int:
    return sum(
        1 for cl in clauses
        if any(values[abs(lit) - 1] == (lit > 0) for lit in cl)
    )


def artifact_shape(m: int, variant: str) -> dict:
    """Closed-form size of a compiled artifact."""
    if variant == "L":
        return {"V": 32 * m, "E": 37 * m - 1, "maxDeg": 4, "kParam": 11 * m - 1}
    return {"V": 28 * m, "E": 31 * m - 1, "maxDeg": 3, "kParam": None}


def encoded_residual(m: int, variant: str, sat: int) -> int:
    return 10 * m - 1 + sat if variant == "L" else 11 * m - 1 - sat


def encoded_residuals(num_vars: int, clauses, variant: str) -> dict[str, int]:
    """Assignment bits ('T'/'F' per variable) -> residual of its encoding."""
    m = len(clauses)
    out = {}
    for values in itertools.product((False, True), repeat=num_vars):
        bits = "".join("T" if v else "F" for v in values)
        out[bits] = encoded_residual(m, variant, sat_count(clauses, values))
    return out


def artifact_nu(text: str) -> tuple[int, int, int]:
    """(V, E, nu) of an artifact file; nu by Hopcroft-Karp on the coordinate
    parity classes, which must two-colour the graph."""
    n, edges, coords = parse_graph_text(text)
    expect(len(coords) == n, "artifact lacks coordinates for some vertex")
    even = {v for v, (x, y) in coords.items() if (x + y) % 2 == 0}
    expect(all((u in even) != (v in even) for u, v in edges),
           "artifact: parity classes do not two-colour the graph")
    return n, len(edges), nu_bipartite(nx_graph(n, edges), even)
