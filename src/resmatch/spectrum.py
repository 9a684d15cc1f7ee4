"""Residual matching spectra.

For a maximum matching F of G, deleting the edges of F (keeping all
vertices) leaves a residual graph G - F.  The spectrum of G is the set of
residual matching numbers nu(G - F) over every maximum matching F; its
minimum and maximum are written ell(G) and L(G).  Every consumer reads
one (maximum matching, residual) stream through `_pass`, which alone
refuses a cap below 1, counts, flags truncation and records each
residual's first leaf, so results are exact whenever the enumeration
finishes under its cap; witnesses are first occurrences in that order, and
ell and L are the least and greatest residual read.  The enumerator
branches on vertices.  A child is pushed with no search, holding its
parent's maximum matching of the remaining graph, and is decided when it
pops by at most two single-root augmenting searches.  One count skips
children that cannot hold a leaf: when that matching is perfect, leaving
a vertex unmatched cannot keep its size (and a take child needs one
search, not two).  A second matching, of G less the node's chosen edges,
gives each leaf its nu(G - F); a child that takes one of its edges
repairs it with one `matching._augment` from its first end and, if that
fails, one from its second, each trying a path of length 1 or 3 before it
searches, so no leaf runs a blossom.  Any augmenting path will do, for a
leaf reads only the size.  The first matching is one working list: a
pop that cuts a take edge off the chosen edges writes it back, and a
pruned child writes back what it zeroed.  The second is written in place
by each repair that succeeds and copied only by one that fails.  The root
first finds fixed edges, which every maximum matching holds
(`matching._fixed_mates`, all of them on a bipartite G).  The one working
list of chosen edges starts with them, their ends start decided and both
matchings start without them, so no node branches on a fixed edge and no
take of one repairs the second matching; a pop cuts the list back to its
parent's length.  Each leaf yields that list sorted, and the leaves and
their order stay as they were.  The result records are NamedTuples;
ToleranceFunction stays a dataclass.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graph import Graph
from .matching import (Matching, _augment, _blossom, _fixed_mates, _search_arrays,
                       _seeded_mates, max_matching)

TOLERANCE_KINDS = ("constant", "linear", "log", "sqrt", "identity")

DEFAULT_CAP = 10**6  # maximum matchings an enumeration reads before it truncates

# ASCII digits and blanks only: Fraction would also read 1_0 and non-ASCII digits
_RATIONAL = re.compile(r"\s*[-+]?(\d+(/\d+)?|\d*\.\d+|\d+\.)\s*", re.ASCII)


class TruncatedSpectrumError(RuntimeError):
    """An exact answer was required but enumeration hit its cap."""


@dataclass(frozen=True)
class ToleranceFunction:
    """Non-negative rational-valued tolerance f(x) for the decision problem.

    kind 'log' means coefficient * floor(log2 x) (0 at x = 0) and 'sqrt'
    means coefficient * isqrt(x); both stay rational-valued on integers.
    'identity' is exactly f(x) = x and admits no coefficient.  A dataclass, so
    that `__post_init__` validates it: `typing.NamedTuple` forbids a `__new__`.
    """

    kind: str
    coefficient: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in TOLERANCE_KINDS:
            raise ValueError(f"unknown tolerance kind {self.kind!r}")
        if self.coefficient < 0:
            raise ValueError("tolerance coefficient must be non-negative")
        if self.kind == "identity" and self.coefficient != 1:
            raise ValueError("identity tolerance admits no coefficient")

    def evaluate(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError("tolerance functions take non-negative arguments")
        if self.kind == "constant":
            return self.coefficient
        if self.kind == "linear":
            return self.coefficient * x
        if self.kind == "log":
            return self.coefficient * (x.bit_length() - 1 if x >= 1 else 0)
        if self.kind == "sqrt":
            return self.coefficient * math.isqrt(x)
        return Fraction(x)


def parse_rational(text: str) -> Fraction:
    """Exact rational of integer, decimal or 'p/q' text; ValueError if q = 0
    or the text is none of these (an exponent such as 1e-3 is refused)."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"rational {text[:40]!r} is not an integer, a decimal or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text[:40]!r} has a zero denominator") from None
    except ValueError:  # more digits than int() converts
        raise ValueError(f"rational {text[:40]!r} has too many digits") from None


def parse_tolerance(spec: str) -> ToleranceFunction:
    """Parse 'identity', 'const:C', 'linear:p/q', 'log[:c]', 'sqrt[:c]'."""
    name, colon, coeff = spec.partition(":")
    kind = {"const": "constant"}.get(name, name)
    if not colon:
        return ToleranceFunction(kind)
    coefficient = parse_rational(coeff)  # a ':' promises one, so an empty one is refused
    if kind == "identity":  # even 1, which ToleranceFunction alone cannot tell from none
        raise ValueError("identity tolerance admits no coefficient")
    return ToleranceFunction(kind, coefficient)


class EnumerationResult(NamedTuple):
    matchings: tuple[Matching, ...]
    truncated: bool


def _iter_maximum_matchings(g: Graph):
    """Yield (edges, nu(g - F)) once for each maximum matching F of g, edges
    being tuple(sorted(F)), the leaf's working list of chosen edges sorted.
    A caller that keeps a leaf makes it a matching (frozenset(edges)); the
    rest cost no set.

    Branch on the lowest undecided vertex u: match it to each neighbour in
    increasing order, then leave it unmatched; pending nodes wait on an
    explicit stack.  A node is its chosen edges, the vertex u its parent
    branched on (0 at the root), and a maximum matching M of the graph H of
    its undecided vertices, those above u that end no chosen edge; so a
    child is kept or pruned without a fresh bound (Fukuda and Matsui 1994,
    Uno 1997): any augmenting path of a child's share of M ends at a vertex
    that branching freed, so two searches at most decide it.  The chosen
    edges live in one working list and in skip (skip[a] = b for each
    (a, b)); a stack entry holds depth, its parent's list length, and the v
    it matches u to (0 to leave u unmatched).  The node popped before it is
    its parent or lies below it, so a pop pops edges off the list, clearing
    skip at their ends and writing them back into M, until depth are left.

    A node pushes its children unsearched, holding its R and r, and a child
    is decided at its pop: it zeroes u, v and their mates in M, a take child
    hides (u, v) in skip, and it runs its searches on that M, which see
    neither u nor v, and is pruned if they fail.  Three local facts give
    each child, as it pops, a maximum matching of its parent's H in the one
    working M, and one of g less its parent's chosen edges in its R.
    - A cut edge (a, b) goes back into M: a kept take child's M plus (a, b)
      is maximum in its parent's H, and a kept drop child's M already is.
      It need not be the parent's own M, but every decision is exact for
      any maximum M (free is the same for each), so no child changes.
    - A pruned child's failed searches wrote nothing, so it writes back the
      at most four entries of M it zeroed and clears its skip.
    - A repair that succeeds leaves in R a matching of size r of g less the
      child's chosen edges.  Every node popped while an entry waits lies
      below that entry's parent, so that graph lies inside g less the
      parent's chosen edges, and R stays maximum for each entry sharing it.
      One that fails wrote nothing: the child gives (u, v) back to the
      shared list and goes on with a copy, its r one less.
    So the stream is unchanged.  One R list is alive per drop of r on the
    current path, plus one, and r falls from at most nu(g) to no less than
    ell(g); the stack holds at most deg(u) + 1 entries per u on the path.
    So memory is O(|E| + |V|·(nu(g) - ell(g) + 1)).

    One count decides some children with fewer searches; it changes neither
    the leaves nor their order.  A node carries free = |V(H)| - 2|M|, the
    vertices M misses (a drop child has one fewer, a take child as many).
    When free is 0, M is perfect: H - u has fewer than 2|M| vertices, so
    the drop child holds no leaf, and the old mates of u and v are the only
    free vertices of a take child, so the search from u's alone decides it.

    A node also carries a maximum matching R of g less its chosen edges (all
    vertices kept) and its size r, which a leaf yields as its residual.  A
    child shares R; if a take child's edge (u, v) is in R, it drops (u, v)
    from R when popped, and looks for an augmenting path with the chosen
    edges skipped: as R was maximum, one must end at u or at v, so r stays
    if one exists and drops by one if none does.  One `_augment` from u,
    then, if it fails, one from v decides; each takes a path of length 1 or
    3 without a search if there is one.  Any augmenting path will do: a leaf
    yields only r, and r is nu(g - chosen) whichever maximum matching R is,
    so the leaves, their order and every r are the same whichever path each
    repair takes.

    On any g the root takes out a set F of fixed edges, edges of the root's
    M that every maximum matching holds (`_fixed_mates`: all of them on a
    bipartite g, and possibly none).  The list starts as F and skip with
    their ends, below every depth, so no pop unwinds them; M and R start
    without them; a node is a leaf when its list holds nu(g) edges.  Three
    things make this the stream of the tree that branches on F too.
    - The rule: every maximum matching holds F (`_fixed_mates` proves
      it).  M less F is maximum in g - V(F), for an augmenting path there
      would augment M in g, so the maximum matchings of g are F plus those
      of g - V(F), and the nodes search g - V(F) through skip.
    - The residual: R starts as M less F, a matching of g less F, and is
      completed by one `_augment` from each end of F that it leaves free.
      Any augmenting path of M less F there ends at two ends of F: one at
      an M-free vertex x and an end a of (a, b) in F would, with (a, b), be
      an even M-alternating path from x whose flip drops (a, b), and one
      with two M-free ends would augment M.  That stays so after
      augmenting along a path P between ends of F: a path Q after it with
      an end y elsewhere would give, from P ⊕ Q, two earlier augmenting
      paths that pair the four ends, and the one at y would not end at two
      ends of F.  A search that fails still fails after later
      augmentations, as in `_blossom`, so one try from each end leaves R
      maximum in g less F; each repair below then keeps R maximum in g less
      the chosen edges, F among them: its size is nu(g - chosen).
    - The order: in the tree that branches at the ends of F too, every
      node that holds a leaf is part of a maximum matching, which holds F,
      so no end of F is left unmatched or matched elsewhere there.  At a
      lower end u of (u, v) in F the only child holding a leaf takes
      (u, v), and a higher end is decided before it is the lowest.  That
      tree is this one with a chain of single children spliced in at each
      lower end of F, so both reach the same leaves, with the same edges,
      in the same order.
    """
    n = g.vertex_count
    adj = g.adjacency()
    arrays = _search_arrays(n)
    skip = arrays[-1]
    match = _blossom(n, adj, range(1, n + 1), arrays)
    target = sum(map(bool, match)) // 2
    free = n - 2 * target
    held = _fixed_mates(n, adj, match)
    chosen = [(v, w) for v, w in enumerate(held) if w > v]  # the fixed edges, never unwound
    skip[:] = held
    match = [0 if h else m for m, h in zip(match, held)]
    res = match[:]
    for a in range(1, n + 1):
        if held[a] and not res[a]:
            _augment(adj, res, a, 0, arrays)
    stack = [(len(chosen), 0, 0, res, sum(map(bool, res)) // 2, free)]
    while stack:
        depth, u, v, res, r, free = stack.pop()
        # chosen, skip and M hold the node popped before: unwind them to the parent's
        while len(chosen) > depth:
            a, b = chosen.pop()
            skip[a] = skip[b] = 0
            match[a], match[b] = b, a
        # the child removes u and v (0 if it leaves u unmatched) and frees their mates;
        # the root (u = v = 0) reads and writes only the unused entry 0
        mu, mv = match[u], match[v]
        match[u] = match[v] = match[mu] = match[mv] = 0
        if v:
            skip[u], skip[v] = v, u  # hidden from the searches
            # with free == 0, mu and mv are the only free vertices, so a path from mv ends at mu
            if mu and mv and mu != v and not _augment(adj, match, mu, u, arrays) and not (
                    free and _augment(adj, match, mv, u, arrays)):
                # pruned: the failed searches wrote nothing, so undo what the child wrote
                skip[u] = skip[v] = 0
                match[u], match[v], match[mu], match[mv] = mu, mv, u, v
                continue
            chosen.append((u, v))
            if res[u] == v:
                res[u] = res[v] = 0
                if not (_augment(adj, res, u, 0, arrays) or _augment(adj, res, v, 0, arrays)):
                    # r drops: the failed repairs wrote nothing, so the shared list gets
                    # (u, v) back, and this child goes on with a copy taken before that
                    res[u], res[v], res = v, u, res[:]
                    r -= 1
        # leaving u unmatched frees its mate, the one end of any augmenting path
        elif mu and not _augment(adj, match, mu, u, arrays):
            match[u], match[mu] = mu, u  # pruned: the failed search wrote nothing
            continue
        if len(chosen) == target:
            yield tuple(sorted(chosen)), r
            continue
        # M is not empty, so an undecided vertex lies above u
        u += 1
        while skip[u]:
            u += 1
        # no leaf leaves u unmatched if M is perfect: H - u has fewer than 2|M| vertices
        if free:
            stack.append((len(chosen), u, 0, res, r, free - 1))
        # pushed last to first, so (u, v) pops in increasing v; adj[u] is sorted
        for v in reversed(adj[u]):
            if v < u:
                break
            if not skip[v]:
                stack.append((len(chosen), u, v, res, r, free))


def _pass(g: Graph, cap: int, visit: Callable[[tuple, int], None] | None = None):
    """(first, count, truncated) of one read of g's (edges, residual) stream,
    cut after cap items (ValueError unless cap is positive): first maps each
    residual to its 1-based first position and leaf, count is the number
    read, and truncated says whether the stream held more.  visit, if given,
    gets each (edges, residual) read."""
    if cap < 1:
        raise ValueError("cap must be positive")
    first: dict[int, tuple[int, tuple]] = {}
    count = 0
    for edges, r in _iter_maximum_matchings(g):
        if count == cap:
            return first, count, True
        count += 1
        if r not in first:
            first[r] = (count, edges)
        if visit is not None:
            visit(edges, r)
    return first, count, False


def enumerate_maximum_matchings(g: Graph, cap: int = DEFAULT_CAP) -> EnumerationResult:
    """All maximum matchings of g, stopping (and flagging) after cap of them."""
    kept: list[Matching] = []
    _, _, truncated = _pass(g, cap, lambda edges, r: kept.append(frozenset(edges)))
    return EnumerationResult(tuple(kept), truncated)


class SpectrumReport(NamedTuple):
    nu: int
    ell: int
    big_l: int
    achieved: frozenset[int]
    witness_min: Matching
    witness_max: Matching
    enumerated: int
    truncated: bool
    # (residual, 1-based position, matching) at the first occurrence of each
    # residual, in enumeration order
    first_seen: tuple[tuple[int, int, Matching], ...]

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "ell": self.ell,
            "L": self.big_l,
            "achieved": sorted(self.achieved),
            "witness_min": [list(e) for e in sorted(self.witness_min)],
            "witness_max": [list(e) for e in sorted(self.witness_max)],
            "enumerated": self.enumerated,
            "truncated": self.truncated,
        }


def spectrum(g: Graph, cap: int = DEFAULT_CAP) -> SpectrumReport:
    """Residual matching numbers over all maximum matchings of g.

    One pass over the enumeration; each witness is the first matching that
    reaches its value.  When truncated, the reported values cover only the
    enumerated prefix and are upper/lower estimates rather than exact
    extremes.
    """
    return _spectrum(*_pass(g, cap))


def _spectrum(first: dict, count: int, truncated: bool) -> SpectrumReport:
    """The report of a _pass that returned (first, count, truncated).
    Only the first leaf with each residual becomes a matching's edge set."""
    seen = {r: (pos, frozenset(edges)) for r, (pos, edges) in first.items()}
    ell, big_l = min(seen), max(seen)
    return SpectrumReport(
        nu=len(seen[ell][1]),
        ell=ell,
        big_l=big_l,
        achieved=frozenset(seen),
        witness_min=seen[ell][1],
        witness_max=seen[big_l][1],
        enumerated=count,
        truncated=truncated,
        first_seen=tuple((r, pos, m) for r, (pos, m) in seen.items()),
    )


class Problem1Result(NamedTuple):
    answer: str  # yes / no / unknown
    witness: Matching | None
    enumerated: int
    truncated: bool


def answer_problem1(
    g: Graph, k: int, f: ToleranceFunction, report: Callable[[], SpectrumReport]
) -> Problem1Result:
    """Problem 1 for g on the spectrum that report() returns.

    The witness is the first enumerated matching whose residual lies within
    f(|V|) of k, and enumerated is its position; without one the answer is
    'no', or 'unknown' if the spectrum was truncated.  f(x) = x is yes
    without calling report(): nu(g - F) and k both lie in [0, |V|/2].
    """
    if not 0 <= k <= g.vertex_count // 2:
        raise ValueError(f"k must lie in 0..{g.vertex_count // 2}, got {k}")
    if f.kind == "identity":
        return Problem1Result("yes", max_matching(g), 0, False)
    bound = f.evaluate(g.vertex_count)
    rep = report()
    for r, pos, m in rep.first_seen:
        if abs(r - k) <= bound:
            return Problem1Result("yes", m, pos, False)
    answer = "unknown" if rep.truncated else "no"
    return Problem1Result(answer, None, rep.enumerated, rep.truncated)


def decide_problem1(
    g: Graph, k: int, f: ToleranceFunction, cap: int = DEFAULT_CAP
) -> Problem1Result:
    """Does some maximum matching F of g satisfy |nu(g - F) - k| <= f(|V|)?

    answer_problem1 on spectrum(g, cap): the enumeration runs to the end or
    to the cap (which must be positive), not only to the first witness.
    """
    return answer_problem1(g, k, f, lambda: spectrum(g, cap))


class BoundsReport(NamedTuple):
    nu: int
    ell: int
    big_l: int
    has_perfect_matching: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_bounds(g: Graph, cap: int = DEFAULT_CAP) -> BoundsReport:
    """Verify ell <= L <= 2*ell, and 2L <= 3*ell when g has a perfect matching.

    These inequalities hold for every graph, so any violation signals an
    implementation bug; the check refuses to run on a truncated spectrum.
    """
    return _check_bounds(g, spectrum(g, cap))


def _check_bounds(g: Graph, report: SpectrumReport) -> BoundsReport:
    if report.truncated:
        raise TruncatedSpectrumError("spectrum truncated; bounds need exact values")
    ell, big_l = report.ell, report.big_l
    perfect = 2 * report.nu == g.vertex_count
    violations = []
    if not ell <= big_l:
        violations.append(f"ell <= L failed: {ell} > {big_l}")
    if not big_l <= 2 * ell:
        violations.append(f"L <= 2*ell failed: {big_l} > {2 * ell}")
    if perfect and not 2 * big_l <= 3 * ell:
        violations.append(f"2L <= 3*ell failed with perfect matching: {2 * big_l} > {3 * ell}")
    return BoundsReport(report.nu, ell, big_l, perfect, tuple(violations))


class ApproxTrialReport(NamedTuple):
    nu: int
    ell: int
    big_l: int
    rows: tuple[tuple[int, int], ...]  # (seed, residual), in seed order
    # each residual of rows -> (r/ell, r/L, ok); the ratios are None when ell = 0
    verdicts: dict[int, tuple[Fraction | None, Fraction | None, bool]]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def approx_trial(g: Graph, seeds, cap: int = DEFAULT_CAP) -> ApproxTrialReport:
    """Residuals of seeded maximum matchings against the exact spectrum.

    The spectrum must pass check_bounds (which raises TruncatedSpectrumError
    on a truncated one) and every seeded residual r must land in [ell, L]; a
    residual is ok when both hold.  Together they give r/ell in [1, 2] and
    r/L in [1/2, 1].  A verdict depends on r alone, so each distinct
    residual gets one.

    seeds may be a one-shot iterator; it is read once.  The seeded matchings
    come first, from one `_seeded_mates` batch (one set-up, one reseeded
    generator), each distinct one in a slot, in order of first appearance:
    the seeds are keyed by mate array, and each distinct one is then keyed
    by its sorted edge tuple, the enumeration's own leaf, built once per
    slot rather than once per seed.  The one pass over the enumeration that
    builds the spectrum reads off r for each slot, so the seeded pass runs
    even when the spectrum turns out truncated.
    """
    seeds = list(seeds)  # read once here; _seeded_mates reads the list again
    firsts: dict[tuple[int, ...], int] = {}  # each distinct mate array -> its slot
    picks = [firsts.setdefault(tuple(mate), len(firsts)) for mate in _seeded_mates(g, seeds)]
    slots = {tuple([(v, w) for v, w in enumerate(mate) if w > v]): i
             for mate, i in firsts.items()}
    residuals: list[int | None] = [None] * len(slots)

    def record(edges, r):
        if edges in slots:
            residuals[slots[edges]] = r

    bounds = _check_bounds(g, _spectrum(*_pass(g, cap, record)))
    ell, big_l = bounds.ell, bounds.big_l
    verdicts = {r: (Fraction(r, ell) if ell else None, Fraction(r, big_l) if ell else None,
                    bounds.ok and ell <= r <= big_l)
                for r in set(residuals)}
    rows = tuple(zip(seeds, [residuals[i] for i in picks]))
    violations = bounds.violations + tuple(f"seed {seed}: residual {r} outside [{ell}, {big_l}]"
                                           for seed, r in rows if not ell <= r <= big_l)
    return ApproxTrialReport(bounds.nu, ell, big_l, rows, verdicts, violations)
