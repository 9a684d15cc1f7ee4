"""Compile exact-3-SAT instances into residual-spectrum hardness artifacts.

The compiler lays gadgets out on an integer lattice.  Every clause owns a
band of four rows; every variable owns four columns.  An occurrence of a
variable in a clause places a *port square* (corners v11/v12 on top,
v21/v22 below) in the shared cells, plus an *anchor square* (u11/u12/u21/u22)
whose position encodes the polarity: below the port square for a plain
occurrence, to its left for a negated one.  Port squares of the same
variable are joined into one even cycle; a spine path with one anchor edge
per clause keeps everything connected.  The two perfect matchings of each
variable cycle (all vertical edges / all horizontal edges) encode the truth
value of that variable, and deleting an encoded perfect matching leaves a
residual matching number that counts satisfied clauses exactly.

Two dials of the construction exist: the "L" variant (clause rails in
column 0, residual 10m-1+sat, maximum degree four) drives the upper end of
the spectrum, the "ell" variant (in-clause port links, residual 11m-1-sat,
maximum degree three) the lower end.

All coordinates are metadata; adjacency is purely combinatorial.  The
build lays out one int key per lattice point, (x + 1) * H + y for an odd H
above every row, so that keys sort in lattice order and a key's parity is
that of x + y + 1.  Vertex ids are assigned by sorting the keys, and each
vertex's coordinates are decoded from its key, so rebuilding an artifact
from the same input is byte-reproducible.  Its six records are NamedTuples.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import NamedTuple

from .graph import Graph, degree_profile, is_connected, normalize_edge, parse_int, records
from .matching import Matching, _covered, _is_matching_of, matching_from_pairs, nu
from .spectrum import _pass

VARIANTS = ("L", "ell")

# clauses of one DIMACS formula: an L artifact has 32 vertices per clause, so
# the largest has 96,000, which GRAPH_VERTEX_LIMIT admits; at the limit reduce
# and verify each take about 0.9 s and 100 MB, and memory grows linearly past it
DIMACS_CLAUSE_LIMIT = 3000

# what exhaustive verify accepts, per variant.  Variables: the census
# enumerates 2^n matchings.  Clauses, L: a census leaf costs about O(V^2), and
# V grows with m.  Clauses, ell: hybrid counts grow about 1.8x per clause past
# the census cap, so the limit is the largest m at which all 20 seeded
# formulas at each n in 3..6 certify
EXHAUSTIVE_LIMITS = {"L": {"variables": 6, "clauses": 50},
                     "ell": {"variables": 6, "clauses": 6}}

Point = tuple[int, int]
Edge = tuple[int, int]


class DimacsError(ValueError):
    """Raised for CNF input that is not in the exact-3 DIMACS fragment."""


class ConstructionError(RuntimeError):
    """Internal layout invariant failed while building an artifact."""


class StructuralDecodeError(ValueError):
    """A perfect matching does not decompose into pure cycle orientations."""


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


class CnfInstance(NamedTuple):
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class Assignment(NamedTuple):
    values: tuple[bool, ...]

    def of(self, var: int) -> bool:
        return self.values[var - 1]

    def bits(self) -> str:
        return "".join("T" if v else "F" for v in self.values)


def all_assignments(num_vars: int):
    for bits in itertools.product((False, True), repeat=num_vars):
        yield Assignment(bits)


def sat_count(cnf: CnfInstance, alpha: Assignment) -> int:
    """Number of clauses with at least one satisfied literal."""
    # the literals alpha makes true: i for a TRUE variable i, -i for a FALSE one
    true_literals = {i if value else -i for i, value in enumerate(alpha.values, start=1)}
    return sum(not true_literals.isdisjoint(cl) for cl in cnf.clauses)


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF restricted to exactly three distinct variables per
    clause, with every declared variable used at least once; lines and
    fields as `records` reads them, with 'c' comments.  The header is read
    first: one declaring more than DIMACS_CLAUSE_LIMIT clauses is refused on
    its line, and no line after it is read."""
    rows = records(text, "c")
    lineno, fields, line = next(rows, (0, None, ""))
    if fields is None:
        raise DimacsError("missing 'p cnf' header")
    if line[0] != "p":
        raise DimacsError(f"line {lineno}: clause data before header")
    try:
        _, kind, vars_text, clauses_text = fields
        if kind != "cnf":
            raise ValueError(kind)
        num_vars, num_clauses = parse_int(vars_text), parse_int(clauses_text)
    except ValueError:
        raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
    if num_vars < 1 or num_clauses < 1:
        raise DimacsError(f"line {lineno}: header counts must be positive")
    if num_clauses > DIMACS_CLAUSE_LIMIT:
        raise DimacsError(f"line {lineno}: header declares {num_clauses} clauses,"
                          f" at most {DIMACS_CLAUSE_LIMIT} are accepted")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, fields, line in rows:
        if line[0] == "p":
            raise DimacsError(f"line {lineno}: duplicate header")
        for tok in fields:
            try:
                lit = parse_int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current.clear()
            else:
                current.append(lit)
    if current:
        raise DimacsError("unterminated clause (missing trailing 0)")
    if len(clauses) != num_clauses:
        raise DimacsError(f"header declares {num_clauses} clauses but {len(clauses)} found")
    for idx, cl in enumerate(clauses, start=1):
        if len(cl) != 3:
            raise DimacsError(f"clause {idx}: expected exactly 3 literals, got {len(cl)}")
        variables = [abs(lit) for lit in cl]
        for v in variables:
            if not 1 <= v <= num_vars:
                raise DimacsError(f"clause {idx}: variable {v} out of range 1..{num_vars}")
        if len(set(variables)) != 3:
            raise DimacsError(f"clause {idx}: repeated variable")
    used = {abs(lit) for cl in clauses for lit in cl}
    unused = num_vars - len(used)  # every used variable lies in 1..num_vars
    if unused:
        # at most len(used) + 10 numbers are scanned, whatever the header says
        missing = list(itertools.islice((v for v in range(1, num_vars + 1) if v not in used), 10))
        total = f" ({unused} in all)" if unused > 10 else ""
        raise DimacsError(f"declared variable(s) never used: {missing}{total}")
    return CnfInstance(num_vars, tuple(clauses))  # type: ignore[arg-type]


# every encoded matching takes all edges of these roles; the cycle edges
# ("port" and "join") it takes depend on the assignment
ENCODED_ROLES = ("path", "u", "column")


def _stride(m: int) -> int:
    """H, the key stride of an m-clause layout: lattice point (x, y) has the
    key (x + 1) * H + y.  H is above every row (1..4m), so keys sort as
    their points do, and odd, so a key's parity is that of x + y + 1."""
    return 4 * m + 1


def _gadget(i: int, j: int, positive: bool, h: int) -> tuple[tuple[int, ...], list]:
    """The corner keys (v21, v22, v11, v12, u11, u12, u21, u22) and the
    (key, key, role) edges of variable i's gadget in clause j, for stride h.
    The port square sits in columns 4i-1 and 4i, rows 4j-1 (v2*) and 4j
    (v1*); the anchor square sits below it for a plain occurrence, where u22
    feeds v22, and left of it for a negated one, where u22 feeds v11."""
    v11 = 4 * i * h + 4 * j  # (4i - 1, 4j)
    v21, v12 = v11 - 1, v11 + h
    v22 = v12 - 1
    if positive:
        u11, u12, u21, u22 = v11 - 3, v11 - 2, v12 - 3, v12 - 2
        fed = v22
    else:
        u11, u12, u21, u22 = v21 - 2 * h, v21 - h, v11 - 2 * h, v11 - h
        fed = v11
    return (v21, v22, v11, v12, u11, u12, u21, u22), [
        (u11, u12, "u"), (u21, u22, "u"), (u12, v21, "feed"), (v21, v22, "port"),
        (v22, v12, "port"), (v11, v12, "port"), (u22, fed, "feed")]


class ReductionArtifact(NamedTuple):
    """An artifact graph and the record that encodes assignments into it.

    `roles` maps every edge of `graph` (an id pair) to its role.  `cycles[i - 1]`
    holds variable i's cycle as its two perfect matchings: the edges its TRUE
    encoding takes, then those its FALSE encoding takes.  Besides one side of
    each cycle, every encoding takes exactly the edges of ENCODED_ROLES.  Its
    closed-form counts are `expected_counts(cnf.num_clauses, variant)`.
    """

    graph: Graph
    cnf: CnfInstance
    variant: str
    roles: dict[Edge, str]
    cycles: tuple[tuple[frozenset[Edge], frozenset[Edge]], ...]


def expected_counts(m: int, variant: str) -> dict:
    """The closed-form counts of the variant's artifact for m clauses."""
    if variant == "L":
        return {
            "vertices": 32 * m,
            "edges": 37 * m - 1,
            "nu": 16 * m,
            "max_degree": 4,
            "k_param": 11 * m - 1,
        }
    return {
        "vertices": 28 * m,
        "edges": 31 * m - 1,
        "nu": 14 * m,
        "max_degree": 3,
        "k_param": None,
    }


def build_artifact(cnf: CnfInstance, variant: str) -> ReductionArtifact:
    """Lay out the artifact graph for cnf in the requested variant.

    Lattice points are int keys (`_stride`), each gadget's from `_gadget`'s
    arithmetic, and keys and (key, key, role) edges are listed in build
    order.  Each layout invariant is checked once over the whole layout:
    keys are distinct (len(ids)), edges are distinct (len(roles)), every
    edge joins keys of both parities, and the counts are the closed-form
    ones.  A failed bulk check rescans the layout and names its first
    offender by its (x, y) point.
    """
    _check_variant(variant)
    m, n = cnf.num_clauses, cnf.num_vars
    h = _stride(m)

    # spine path in column -1, where a key is its row; every other edge, from
    # the first, is a path pair of the encoded matchings
    keys = list(range(1, 4 * m + 1))
    triples: list[tuple[int, int, str]] = [
        (y, y + 1, "path" if y % 2 else "spine") for y in range(1, 4 * m)]
    # one anchor edge per clause keeps the artifact connected; the spine end
    # it uses, (-1, 4j-2), is matched by a spine edge in every residual, so
    # anchors never enlarge a residual matching
    anchors = []
    occurrences: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]

    for j, clause in enumerate(cnf.clauses, start=1):
        gadgets = []  # corner tuples (v21, v22, v11, v12, u11, ...) in clause order
        for lit in clause:
            corners, edges = _gadget(abs(lit), j, lit > 0, h)
            keys += corners
            triples += edges
            gadgets.append(corners)
            occurrences[abs(lit)].append(corners)
        anchors.append((4 * j - 2, gadgets[0][4], "anchor"))  # to the first u11
        if variant == "L":
            low0 = h + 4 * j - 3  # column 0, rows 4j-3..4j
            high0 = low0 + 2
            keys += (low0, low0 + 1, high0, high0 + 1)
            triples += [(low0, low0 + 1, "column"), (high0, high0 + 1, "column")]
            for v12 in (gadgets[0][3], gadgets[1][3], gadgets[2][3]):
                triples += [(low0, v12, "rail"), (high0, v12, "rail")]
        else:
            # Port links chain the three port squares, each v12 to the next
            # square.  The in-corner must be one the satisfied-side residual
            # leaves free, which depends on where the anchor square sits: v11
            # for plain occurrences, v22 for negated ones.
            for t in (1, 2):
                triples.append((gadgets[t - 1][3], gadgets[t][2 if clause[t] > 0 else 1], "link"))
    triples += anchors

    # variable cycles: each port square contributes its three drawn edges;
    # consecutive occurrences (clause order, wrapping) are joined v11 -> v21
    # along the square's left column.  L encodes TRUE as the vertical cycle
    # matching, ell as the horizontal one; the two variants reward opposite
    # orientations in the residual.
    cycle_keys: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = []
    for i in range(1, n + 1):
        occs = occurrences[i]
        if not occs:
            raise ConstructionError(f"variable {i} has no occurrences")
        vertical: list[tuple[int, int]] = []
        horizontal: list[tuple[int, int]] = []
        for (v21, v22, v11, v12, *_), (nxt_v21, *_) in zip(occs, occs[1:] + occs[:1]):
            horizontal += [(v21, v22), (v12, v11)]
            vertical += [(v22, v12), (v11, nxt_v21)]
            triples.append((v11, nxt_v21, "join"))
        cycle_keys.append((vertical, horizontal) if variant == "L" else (horizontal, vertical))

    # ids follow the key order, so the id pairs of an edge order like its keys;
    # a + b is odd exactly when the edge crosses the parity classes
    order = sorted(keys)
    ids = dict(zip(order, range(1, len(order) + 1)))
    roles = {((ids[a], ids[b]) if a < b else (ids[b], ids[a])): role for a, b, role in triples}
    if (len(ids) != len(keys) or len(roles) != len(triples)
            or 0 in {(a + b) % 2 for a, b, _ in triples}):
        _first_offender(keys, triples, h)
    expected = expected_counts(m, variant)
    if len(keys) != expected["vertices"]:
        raise ConstructionError(f"{len(keys)} lattice points, expected {expected['vertices']}")
    if len(roles) != expected["edges"]:
        raise ConstructionError(f"{len(roles)} edges, expected {expected['edges']}")

    # the bulk checks cover every edge, and the graph shares its edge tuples
    # with roles, where build_graph would copy each one
    coords = {v: (k // h - 1, k % h) for v, k in enumerate(order, start=1)}
    graph = Graph(len(keys), frozenset(roles), coords)

    def id_edges(walk: list[tuple[int, int]]) -> frozenset[Edge]:
        return frozenset((ids[a], ids[b]) if a < b else (ids[b], ids[a]) for a, b in walk)

    return ReductionArtifact(
        graph=graph,
        cnf=cnf,
        variant=variant,
        roles=roles,
        cycles=tuple((id_edges(t), id_edges(f)) for t, f in cycle_keys),
    )


def _first_offender(keys: list[int], triples: list[tuple[int, int, str]], h: int):
    """Raise the ConstructionError of the first key, then of the first edge,
    in build order, that breaks a layout invariant, naming each key by its
    (x, y) point for stride h."""
    def point(key: int) -> Point:
        q, y = divmod(key, h)
        return q - 1, y

    seen: set = set()
    for k in keys:
        if k in seen:
            raise ConstructionError(f"lattice collision at {point(k)}")
        seen.add(k)
    for a, b, _ in triples:
        e = normalize_edge(a, b)
        named = point(e[0]), point(e[1])
        if e in seen:
            raise ConstructionError(f"duplicate edge {named}")
        if (a + b) % 2 == 0:
            raise ConstructionError(f"edge {named} does not cross the parity classes")
        seen.add(e)
    raise AssertionError("a bulk layout check failed, but no point or edge breaks it")


def encode_assignment(art: ReductionArtifact, alpha: Assignment) -> Matching:
    """Perfect matching of the artifact realizing the assignment."""
    if len(alpha.values) != art.cnf.num_vars:
        raise ValueError(f"assignment covers {len(alpha.values)} variables,"
                         f" need {art.cnf.num_vars}")
    pairs = [e for e, role in art.roles.items() if role in ENCODED_ROLES]
    for value, (true_side, false_side) in zip(alpha.values, art.cycles):
        pairs.extend(true_side if value else false_side)
    return matching_from_pairs(pairs, art.graph.vertex_count)


def _orientation(art: ReductionArtifact, f: frozenset[Edge]) -> tuple[bool, ...] | int:
    """The values tuple a perfect matching's edge set f encodes: per variable
    cycle, TRUE if f holds its TRUE side, else FALSE if f holds its FALSE
    side.  Each side is a perfect matching of the cycle's vertices, so
    containment decides it.  Returns the number of the first variable whose
    cycle carries neither side instead."""
    values = []
    for i, (true_side, false_side) in enumerate(art.cycles, start=1):
        if true_side <= f:
            values.append(True)
        elif false_side <= f:
            values.append(False)
        else:
            return i
    return tuple(values)


def decode_matching(art: ReductionArtifact, f: Matching) -> Assignment:
    """Read the assignment back out of a perfect matching.

    Each variable takes the value `_orientation` reads off its cycle.
    Raises ValueError when f is not a perfect matching of the artifact, and
    StructuralDecodeError when some variable cycle carries neither side
    purely.  Perfection is a size and subset test, so decoding runs no
    blossom.
    """
    if 2 * len(f) != art.graph.vertex_count or not _is_matching_of(art.graph, f, _covered(f)):
        raise ValueError("decode requires a valid perfect matching of the artifact")
    values = _orientation(art, f)
    if isinstance(values, int):
        raise StructuralDecodeError(f"cycle of variable {values} is not purely oriented"
                                    " in this matching")
    return Assignment(values)


def _residual_of_sat(art: ReductionArtifact, s: int) -> int:
    """Residual matching number left by encoding an assignment that satisfies s clauses."""
    m = art.cnf.num_clauses
    return 10 * m - 1 + s if art.variant == "L" else 11 * m - 1 - s


class ResidualCheck(NamedTuple):
    assignment: str
    sat: int
    expected: int
    actual: int
    decode_ok: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.actual and self.decode_ok


class MatchingCensus(NamedTuple):
    """Census of all maximum matchings of an artifact, each read as pure or hybrid.

    Pure matchings decode (perfect, pure cycle orientations); the rest are
    hybrids.  Encodings are exactly the pure matchings, so pure_count must
    equal 2^n in both variants, and the L variant admits no hybrids.  The
    ell variant may carry hybrids that route through port links, but those
    must never push the residual minimum below the encoded minimum, or the
    artifact would stop witnessing the spectrum floor.  The encoded range
    is None when no assignment has a matching.
    """

    pure_expected: int
    count: int
    truncated: bool
    pure_count: int
    hybrid_count: int
    residual_min: int
    residual_max: int
    encoded_min: int | None
    encoded_max: int | None
    residuals_ok: bool


class Certificate(NamedTuple):
    """What `verify_artifact` measured and found wrong; `to_json_dict` adds the
    closed-form values it was held to, from `expected_counts(m, variant)`."""

    variant: str
    m: int
    vertices: int
    edges: int
    max_degree: int
    bipartite: bool
    connected: bool
    nu_value: int
    residual_checks: tuple[ResidualCheck, ...]
    census: MatchingCensus | None
    discrepancies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        exp = expected_counts(self.m, self.variant)
        return {
            "variant": self.variant,
            "m": self.m,
            "V": self.vertices,
            "expectedV": exp["vertices"],
            "E": self.edges,
            "expectedE": exp["edges"],
            "maxDeg": self.max_degree,
            "expectedMaxDeg": exp["max_degree"],
            "bipartite": self.bipartite,
            "connected": self.connected,
            "nu": self.nu_value,
            "expectedNu": exp["nu"],
            "kParam": exp["k_param"],
            "edgeRule": "per-clause spine anchor at (-1, 4j-2)",
            "residualChecks": [{**_camel_case(rc), "ok": rc.ok} for rc in self.residual_checks],
            "census": None if self.census is None else _camel_case(self.census),
            "discrepancies": list(self.discrepancies),
            "ok": self.ok,
        }


@functools.cache
def _camel_keys(cls) -> tuple[str, ...]:
    """The camelCase key of each field of a record class, in order."""
    return tuple(re.sub(r"_([a-z])", lambda c: c[1].upper(), f) for f in cls._fields)


def _camel_case(record) -> dict:
    """A record's fields, in order, keyed by their camelCase names."""
    return dict(zip(_camel_keys(type(record)), record))


def check_exhaustive_limits(cnf: CnfInstance, variant: str):
    """ValueError if variant is not one of VARIANTS, or if cnf has more
    variables or clauses than an exhaustive verification of its artifact in
    variant supports."""
    _check_variant(variant)
    limits = EXHAUSTIVE_LIMITS[variant]
    for noun, count in (("variables", cnf.num_vars), ("clauses", cnf.num_clauses)):
        if count > limits[noun]:
            raise ValueError(f"exhaustive verification supports at most {limits[noun]}"
                             f" {noun}, instance has {count}")


def verify_artifact(art: ReductionArtifact, exhaustive: bool = False) -> Certificate:
    """Structural certificate, optionally with exhaustive semantic checks.

    Structural: vertex/edge census against the closed-form expectations,
    parity bipartiteness, connectivity, maximum degree, and nu = |V|/2 via
    the matching engine.  Exhaustive (check_exhaustive_limits first): one
    `spectrum._pass`, the capped read every enumeration consumer shares,
    hands each maximum matching F to a classifier as the stream's edge tuple
    and re-validates none: F is pure when it is perfect (2|F| = |V|) and
    `_orientation` reads a side off every cycle, as in `decode_matching`,
    and a hybrid otherwise.  The pure matchings must be the 2^n encodings,
    and each assignment's residual check reads the residual of the pure
    matching that decodes to it.  A pure F is its assignment's encoding
    exactly when core <= F, core being the ENCODED_ROLES edges, so no
    encoding is built and no blossom runs beyond the structural nu.
    residual_min and residual_max are ell and L of that same pass, the least
    and greatest residual it read.

    The census stops after max(256, 8 * 2^n) matchings; the variable limit
    of EXHAUSTIVE_LIMITS does not bound it, as ell hybrid counts grow with m
    (worst count / 2^n on random formulas: 37.5 at n=3, m=8; 12.7 at n=5,
    m=8; 19.4 at n=6, m=12).
    A truncated census fails and skips the checks a prefix cannot decide.
    """
    n, m = art.cnf.num_vars, art.cnf.num_clauses
    if exhaustive:
        check_exhaustive_limits(art.cnf, art.variant)
    g = art.graph
    exp = expected_counts(m, art.variant)
    discrepancies: list[str] = []

    def check(name: str, expected_value, actual_value):
        if expected_value != actual_value:
            discrepancies.append(f"{name}: expected {expected_value}, got {actual_value}")

    check("vertices", exp["vertices"], g.vertex_count)
    check("edges", exp["edges"], g.edge_count)
    prof = degree_profile(g)
    check("max_degree", exp["max_degree"], prof["max"])
    parity = [0] * (g.vertex_count + 1)
    for v, (x, y) in g.coords.items():
        parity[v] = (x + y) % 2
    parity_ok = all(parity[u] != parity[v] for u, v in g.edges)
    if not parity_ok:
        discrepancies.append("bipartite: parity classes do not two-color the artifact")
    connected = is_connected(g)
    if not connected:
        discrepancies.append("connected: artifact is disconnected")
    nu_value = nu(g)
    check("nu", exp["nu"], nu_value)

    residual_checks: dict[tuple[bool, ...], ResidualCheck] = {}  # keyed by assignment values
    census: MatchingCensus | None = None
    if exhaustive:
        pure_expected = 2**n
        # a pure matching is perfect with one side per cycle: an encoding iff it holds core
        core = frozenset(e for e, role in art.roles.items() if role in ENCODED_ROLES)
        pure: list[tuple[tuple[bool, ...], int, bool]] = []  # (values, residual, is their encoding)

        def classify(edges, r):
            if 2 * len(edges) == g.vertex_count:  # else a hybrid: leaves are maximum matchings
                f = frozenset(edges)
                values = _orientation(art, f)
                if isinstance(values, tuple):  # else a cycle carries neither side: a hybrid
                    pure.append((values, r, core <= f))

        first, count, truncated = _pass(g, max(256, 8 * pure_expected), classify)
        decoded = {values: (r, is_encoding) for values, r, is_encoding in pure}
        for alpha in all_assignments(n):
            if alpha.values not in decoded:
                if not truncated:
                    discrepancies.append(f"residual({alpha.bits()}): no matching decodes to it")
                continue
            actual, decode_ok = decoded[alpha.values]
            sat = sat_count(art.cnf, alpha)
            want = _residual_of_sat(art, sat)
            rc = ResidualCheck(alpha.bits(), sat, want, actual, decode_ok)
            residual_checks[alpha.values] = rc
            if not rc.ok:
                discrepancies.append(
                    f"residual({alpha.bits()}): expected {want}, got {actual},"
                    f" decode_ok={decode_ok}"
                )
        encoded = [rc.actual for rc in residual_checks.values()]
        census = MatchingCensus(
            pure_expected=pure_expected,
            count=count,
            truncated=truncated,
            pure_count=len(pure),
            hybrid_count=count - len(pure),
            residual_min=min(first),
            residual_max=max(first),
            encoded_min=min(encoded, default=None),
            encoded_max=max(encoded, default=None),
            residuals_ok=all(r == residual_checks[values].expected for values, r, _ in pure),
        )
        if census.truncated:
            discrepancies.append("census: enumeration truncated, cannot certify")
        elif census.pure_count != pure_expected:
            discrepancies.append(
                f"census: {census.pure_count} decodable maximum matchings,"
                f" expected {pure_expected}"
            )
        if art.variant == "L" and census.hybrid_count:
            discrepancies.append(
                f"census: {census.hybrid_count} non-encoding maximum matchings"
                " in a variant that forbids them"
            )
        if not census.truncated and census.residual_min != census.encoded_min:
            discrepancies.append(
                f"census: residual minimum {census.residual_min} differs from"
                f" encoded minimum {census.encoded_min}"
            )
        if not census.residuals_ok:
            discrepancies.append("census: a decodable matching misses its residual value")

    return Certificate(
        variant=art.variant,
        m=m,
        vertices=g.vertex_count,
        edges=g.edge_count,
        max_degree=prof["max"],
        bipartite=parity_ok,
        connected=connected,
        nu_value=nu_value,
        residual_checks=tuple(residual_checks.values()),
        census=census,
        discrepancies=tuple(discrepancies),
    )


def calibration(variant: str, eps: Fraction) -> Fraction:
    """Inapproximability gap delta for the chosen variant.

    L: requires 0 < eps < 1/88, delta = 11(1-eps) - 10 - 7/8.
    ell: requires 0 < eps < 1/80, delta = 11 - 7/8 - 10(1+eps).
    Both deltas land in the open interval (0, 1/8).
    """
    _check_variant(variant)
    eps = Fraction(eps)
    if variant == "L":
        if not 0 < eps < Fraction(1, 88):
            raise ValueError(f"eps must lie in (0, 1/88), got {eps}")
        delta = 11 * (1 - eps) - 10 - Fraction(7, 8)
    else:
        if not 0 < eps < Fraction(1, 80):
            raise ValueError(f"eps must lie in (0, 1/80), got {eps}")
        delta = 11 - Fraction(7, 8) - 10 * (1 + eps)
    assert 0 < delta < Fraction(1, 8)
    return delta


def additive_bound(eps: Fraction) -> Fraction:
    """1/256 - eps/32, the bound additive_threshold holds c below."""
    return Fraction(1, 256) - Fraction(eps) / 32


def additive_threshold(c: Fraction, eps: Fraction) -> bool:
    """Whether the additive coefficient c is small enough for hardness at
    inapproximability strength eps: c < additive_bound(eps), exactly."""
    c = Fraction(c)
    eps = Fraction(eps)
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if not 0 < eps < Fraction(1, 8):
        raise ValueError(f"eps must lie in (0, 1/8), got {eps}")
    return c < additive_bound(eps)
