"""Directed activity multigraphs and their structural metrics.

Consecutive token pairs of a footprint sequence become weight-1 directed
edges, keeping self-loops and parallel edges. Metrics read activity
persistence and organization out of the structure: density (can exceed 1),
self-loop count, strongly connected components, indegree-central
activities, and the transition with maximal edge betweenness.

Tokens are ints (see ``events``), so each token indexes the per-node
lists directly: successor lists, Tarjan's index/lowlink/on-stack state and
Brandes' distances, path counts and dependencies.

Edge betweenness is exact without rational arithmetic: Brandes'
accumulation keeps every edge's score as an integer numerator over one
common denominator per graph, so ties break exactly and the reported
float is the exact value rounded once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from mooctrace.events import ActivityToken

EdgePair = tuple[ActivityToken, ActivityToken]


@dataclass(frozen=True)
class ActivityGraph:
    """Directed multigraph over activity tokens; edges kept in sequence order."""

    nodes: frozenset[ActivityToken]
    edges: tuple[EdgePair, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphMetrics:
    num_nodes: int
    num_edges: int
    density: float
    num_self_loops: int
    num_scc: int
    top_indegree: tuple[tuple[ActivityToken, float], ...]
    central_transition: tuple[EdgePair, float] | None


def build_graph(tokens) -> ActivityGraph:
    """Build the activity graph from a footprint token sequence."""
    tokens = tuple(tokens)
    edges = tuple(zip(tokens, tokens[1:]))
    return ActivityGraph(frozenset(tokens), edges)


def density(g: ActivityGraph) -> float:
    """m / n(n-1); exceeds 1 when self-loops/parallel edges are plentiful.

    Defined as 0.0 for graphs with fewer than two nodes, where a density
    reading is uninformative (self-loop count carries persistence there).
    """
    n = g.num_nodes
    if n <= 1:
        return 0.0
    return g.num_edges / (n * (n - 1))


def count_self_loops(g: ActivityGraph) -> int:
    """Number of edges from a node to itself, counted with multiplicity."""
    return sum(1 for u, v in g.edges if u == v)


def _successors(g: ActivityGraph) -> list[list[ActivityToken]]:
    """Successors per token in the collapsed simple digraph, in token order.

    Parallel edges collapse to one and self-loops are dropped: neither
    changes strong connectivity or shortest paths.
    """
    succ: list[list[ActivityToken]] = [[] for _ in ActivityToken]
    for u, v in sorted(set(g.edges)):
        if u != v:
            succ[u].append(v)
    return succ


def count_scc(g: ActivityGraph) -> int:
    """Number of strongly connected components (Tarjan); 0 for the empty graph."""
    succ = _successors(g)
    index = [-1] * len(succ)
    lowlink = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[ActivityToken] = []
    counter = 0
    n_scc = 0

    def strongconnect(v: ActivityToken) -> None:
        nonlocal counter, n_scc
        index[v] = lowlink[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        for w in succ[v]:
            if index[w] < 0:
                strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif on_stack[w]:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            n_scc += 1
            while True:
                w = stack.pop()
                on_stack[w] = False
                if w == v:
                    break

    # Node count is bounded by the 15-token alphabet, so recursion is shallow.
    for v in sorted(g.nodes):
        if index[v] < 0:
            strongconnect(v)
    return n_scc


def indegree_centrality(g: ActivityGraph) -> dict[ActivityToken, float]:
    """Indegree (with multiplicity, self-loops included) over n-1."""
    n = g.num_nodes
    if n <= 1:
        return {v: 0.0 for v in g.nodes}
    indeg = [0] * len(ActivityToken)
    for _, v in g.edges:
        indeg[v] += 1
    return {v: indeg[v] / (n - 1) for v in g.nodes}


def top_indegree(g: ActivityGraph) -> list[tuple[ActivityToken, float]]:
    """The three most indegree-central activities, ties broken by token order."""
    centrality = indegree_centrality(g)
    return sorted(centrality.items(), key=lambda item: (-item[1], item[0]))[:3]


def _betweenness_numerators(g: ActivityGraph) -> tuple[dict[EdgePair, int], int]:
    """Edge betweenness as integer numerators over one common denominator.

    Returns (numerators, denominator): numerators keyed by (from, to) in
    token order for every edge of the collapsed simple digraph, and the
    edge (u, v) has betweenness numerators[u, v] / denominator.

    Self-loops are excluded and parallel edges collapse to one: shortest
    paths never traverse a loop and multiplicity does not change path
    structure. For each ordered node pair (s, t) with s != t and at least
    one path, an edge accumulates the fraction of shortest s-t paths
    passing through it; the sum is normalized by 1/(n(n-1)).

    Brandes' accumulation (Brandes 2001; edge variant, Brandes 2008) with
    one BFS per source s. D is the lcm of the shortest-path counts sigma of
    every source. With sigma_x the number of shortest s-x paths and sigma_wt
    that of shortest w-t paths, (1 + delta_w) / sigma_w = 1 / sigma_w plus
    the sum of sigma_wt / sigma_t over the targets t whose shortest paths
    from s pass through w, and every denominator there divides D. So the
    loop keeps D * delta_w as an integer, and each edge contribution
    sigma_v * (D + D * delta_w) // sigma_w is an exact division.
    """
    nodes = sorted(g.nodes)
    succ = _successors(g)
    searches = []
    for source in nodes:
        # BFS from source: distances, path counts, shortest-path predecessors.
        dist = [-1] * len(succ)
        sigma = [0] * len(succ)
        preds: list[list[ActivityToken]] = [[] for _ in succ]
        dist[source], sigma[source] = 0, 1
        order = [source]
        for v in order:  # grows while it is walked: a FIFO queue
            next_dist = dist[v] + 1
            for w in succ[v]:
                if dist[w] < 0:
                    dist[w] = next_dist
                    order.append(w)
                if dist[w] == next_dist:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        searches.append((order, sigma, preds))

    denominator = math.lcm(*(s for _, sigma, _ in searches for s in sigma if s))
    numerators = {(v, w): 0 for v in nodes for w in succ[v]}
    for order, sigma, preds in searches:
        # Accumulate D * delta in reverse BFS order.
        delta = [0] * len(succ)
        for w in reversed(order):
            share = (denominator + delta[w]) // sigma[w]
            for v in preds[w]:
                contribution = sigma[v] * share
                numerators[v, w] += contribution
                delta[v] += contribution
    n = len(nodes)
    return numerators, denominator * n * (n - 1)


def central_transition(g: ActivityGraph) -> tuple[EdgePair, float] | None:
    """The non-loop edge with maximal betweenness, or None without one.

    Exact ties break by (from, to) token order. The value is the exact
    betweenness rounded once to the nearest float.
    """
    numerators, denominator = _betweenness_numerators(g)
    if not numerators:
        return None
    (u, v), num = max(
        numerators.items(), key=lambda item: (item[1], -item[0][0], -item[0][1])
    )
    return (u, v), num / denominator  # int / int rounds correctly


def compute_metrics(g: ActivityGraph) -> GraphMetrics:
    """All structural metrics of one activity graph."""
    return GraphMetrics(
        num_nodes=g.num_nodes,
        num_edges=g.num_edges,
        density=density(g),
        num_self_loops=count_self_loops(g),
        num_scc=count_scc(g),
        top_indegree=tuple(top_indegree(g)),
        central_transition=central_transition(g),
    )


def export_dot(g: ActivityGraph, tokens) -> str:
    """Graphviz DOT text with Be/En sentinel nodes around the token sequence.

    Nodes are sized by indegree centrality and edges widened by parallel
    multiplicity. Sentinels are rendering-only: metrics never see them.
    """
    centrality = indegree_centrality(g)
    multiplicity = Counter(g.edges)

    lines = ["digraph activity {", "  rankdir=LR;"]
    lines.append('  "Be" [shape=doublecircle, width=0.30];')
    lines.append('  "En" [shape=doublecircle, width=0.30];')
    for v in sorted(g.nodes):
        width = 0.40 + 0.30 * centrality[v]
        lines.append(f'  "{v.name}" [shape=circle, width={width:.2f}];')
    if tokens:
        lines.append(f'  "Be" -> "{tokens[0].name}";')
    for (u, v), count in sorted(multiplicity.items()):
        attrs = f' [penwidth={float(count):.1f}, label="{count}"]' if count > 1 else ""
        lines.append(f'  "{u.name}" -> "{v.name}"{attrs};')
    if tokens:
        lines.append(f'  "{tokens[-1].name}" -> "En";')
    lines.append("}")
    return "\n".join(lines) + "\n"


METRICS_CSV_HEADER = (
    "sid,courseweek,setup,num_nodes,num_edges,density,"
    "num_self_loops,num_scc,top_indegree,central_transition"
)


def metrics_csv_row(sid: int, courseweek: int, setup: str, m: GraphMetrics) -> str:
    """One CSV row keyed by (sid, courseweek, setup)."""
    top = ";".join(f"{tok.name}:{c:.6g}" for tok, c in m.top_indegree)
    if m.central_transition is not None:
        (u, v), bc = m.central_transition
        trans = f"{u.name}>{v.name}:{bc:.6g}"
    else:
        trans = ""
    return (
        f"{sid},{courseweek},{setup},{m.num_nodes},{m.num_edges},"
        f"{m.density:.6g},{m.num_self_loops},{m.num_scc},{top},{trans}"
    )
