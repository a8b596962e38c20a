"""Directed activity multigraphs and their structural metrics.

Consecutive token pairs of a footprint sequence become weight-1 directed
edges, keeping self-loops and parallel edges. ``build_graph`` walks the
pairs once and keeps their tally: each distinct (from, to) pair with its
multiplicity. ``compute_metrics`` reads every metric off that tally:
density (can exceed 1), self-loop count, strongly connected components,
indegree-central activities, and the transition with maximal edge
betweenness. ``export_dot`` renders the graph and ``metrics_csv_row`` one
row of its metrics.

Tokens are ints (see ``events``), so each token indexes the per-node
lists directly: indegrees, successor lists, Tarjan's index/lowlink/on-stack
state and Brandes' distances, path counts and dependencies.

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
    """Directed multigraph over the activity tokens of one sequence.

    multiplicity maps each distinct (from, to) pair, in token order, to the
    number of times the sequence makes that transition.
    """

    tokens: tuple[ActivityToken, ...]
    nodes: frozenset[ActivityToken]
    multiplicity: dict[EdgePair, int]

    @property
    def edges(self) -> tuple[EdgePair, ...]:
        """Every edge in sequence order, parallel edges repeated."""
        return tuple(zip(self.tokens, self.tokens[1:]))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return max(len(self.tokens) - 1, 0)


@dataclass(frozen=True)
class GraphMetrics:
    num_nodes: int
    num_edges: int
    # m / n(n-1), exceeding 1 when self-loops and parallel edges are plentiful;
    # 0.0 below two nodes, where the self-loop count carries persistence.
    density: float
    num_self_loops: int  # counted with multiplicity
    num_scc: int  # 0 for the empty graph
    # The three activities with the highest indegree (with multiplicity,
    # self-loops included) over n-1, ties broken by token order.
    top_indegree: tuple[tuple[ActivityToken, float], ...]
    # The non-loop edge with maximal betweenness and its exact value rounded
    # once, exact ties broken by (from, to) token order; None without one.
    central_transition: tuple[EdgePair, float] | None


def build_graph(tokens) -> ActivityGraph:
    """Build the activity graph from a footprint token sequence."""
    tokens = tuple(tokens)
    tally = Counter(zip(tokens, tokens[1:]))
    return ActivityGraph(tokens, frozenset(tokens), dict(sorted(tally.items())))


def _read_tally(g: ActivityGraph) -> tuple[int, list[int], list[list[ActivityToken]]]:
    """Self-loop count, indegree per token and successors per token.

    Successors are those of the collapsed simple digraph, in token order:
    parallel edges collapse to one and self-loops are dropped, as neither
    changes strong connectivity or shortest paths.
    """
    self_loops = 0
    indegree = [0] * len(ActivityToken)
    succ: list[list[ActivityToken]] = [[] for _ in ActivityToken]
    for (u, v), count in g.multiplicity.items():
        indegree[v] += count
        if u == v:
            self_loops += count
        else:
            succ[u].append(v)
    return self_loops, indegree, succ


def _count_scc(nodes: list[ActivityToken], succ: list[list[ActivityToken]]) -> int:
    """Number of strongly connected components (Tarjan)."""
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
    for v in nodes:
        if index[v] < 0:
            strongconnect(v)
    return n_scc


def _betweenness_numerators(
    nodes: list[ActivityToken], succ: list[list[ActivityToken]]
) -> tuple[dict[EdgePair, int], int]:
    """Edge betweenness as integer numerators over one common denominator.

    Takes the sorted nodes and the simple-digraph successors (see
    _read_tally). Returns (numerators, denominator): numerators keyed by
    (from, to) in token order for every edge of the collapsed simple
    digraph, and the edge (u, v) has betweenness numerators[u, v] / denominator.

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


def compute_metrics(g: ActivityGraph) -> GraphMetrics:
    """All structural metrics of one activity graph (see GraphMetrics)."""
    n = g.num_nodes
    nodes = sorted(g.nodes)
    self_loops, indegree, succ = _read_tally(g)
    centrality = [(v, indegree[v] / (n - 1) if n > 1 else 0.0) for v in nodes]
    numerators, denominator = _betweenness_numerators(nodes, succ)
    central = None
    if numerators:
        edge, num = max(
            numerators.items(), key=lambda item: (item[1], -item[0][0], -item[0][1])
        )
        central = edge, num / denominator  # int / int rounds correctly
    return GraphMetrics(
        num_nodes=n,
        num_edges=g.num_edges,
        density=g.num_edges / (n * (n - 1)) if n > 1 else 0.0,
        num_self_loops=self_loops,
        num_scc=_count_scc(nodes, succ),
        top_indegree=tuple(sorted(centrality, key=lambda item: (-item[1], item[0]))[:3]),
        central_transition=central,
    )


def export_dot(g: ActivityGraph) -> str:
    """Graphviz DOT text with Be/En sentinel nodes around the token sequence.

    Nodes are sized by indegree centrality and edges widened by parallel
    multiplicity. Sentinels are rendering-only: metrics never see them.
    """
    _, indegree, _ = _read_tally(g)
    n = g.num_nodes
    lines = ["digraph activity {", "  rankdir=LR;"]
    lines.append('  "Be" [shape=doublecircle, width=0.30];')
    lines.append('  "En" [shape=doublecircle, width=0.30];')
    for v in sorted(g.nodes):
        width = 0.40 + 0.30 * (indegree[v] / (n - 1) if n > 1 else 0.0)
        lines.append(f'  "{v.name}" [shape=circle, width={width:.2f}];')
    if g.tokens:
        lines.append(f'  "Be" -> "{g.tokens[0].name}";')
    for (u, v), count in g.multiplicity.items():
        attrs = f' [penwidth={float(count):.1f}, label="{count}"]' if count > 1 else ""
        lines.append(f'  "{u.name}" -> "{v.name}"{attrs};')
    if g.tokens:
        lines.append(f'  "{g.tokens[-1].name}" -> "En";')
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
