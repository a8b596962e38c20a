"""Directed activity multigraphs and their structural metrics.

Consecutive token pairs of a footprint sequence become weight-1 directed
edges, keeping self-loops and parallel edges. ``build_graph`` keeps the
pairs' tally: each distinct (from, to) pair with its multiplicity. The
tally runs across weeks: given a previous graph whose tokens the sequence
starts with, as a TCurr sequence starts with the same student's previous
week, it adds only the pairs from that prefix's last token onward, the
junction pair included; given any other, it starts empty. A Curr week is
the one-week case: a previous graph is its prefix only by chance, and
extending it is just as exact. ``compute_metrics`` reads every metric off
the tally: density (can exceed 1), self-loop count, strongly connected
components, indegree-central activities, and the transition with maximal
edge betweenness. Components and betweenness share one breadth-first
search per source. ``export_dot`` renders the graph and
``metrics_csv_row`` one row of its metrics.

Tokens are ints (see ``events``), so each token indexes the per-node
lists directly: indegrees, successor lists and Brandes' distances, path
counts and dependencies.

Edge betweenness is exact without rational arithmetic: Brandes'
accumulation keeps every edge's score as an integer numerator over one
common denominator per graph, so ties break exactly and the reported
float is the exact value rounded once.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from mooctrace.events import ActivityToken

EdgePair = tuple[ActivityToken, ActivityToken]


class ActivityGraph(NamedTuple):
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


class GraphMetrics(NamedTuple):
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


def build_graph(tokens, previous: ActivityGraph | None = None) -> ActivityGraph:
    """Build the activity graph from a footprint token sequence.

    When previous is given and its tokens are a prefix of tokens, its tally
    is extended by the pairs from that prefix's last token onward; otherwise
    the tally starts empty. Either way the graph equals that of tokens alone.
    """
    tokens = tuple(tokens)
    tally, start = Counter(), 0
    if previous is not None and previous.tokens == tokens[: len(previous.tokens)]:
        tally.update(previous.multiplicity)
        start = max(len(previous.tokens) - 1, 0)
    tally.update(zip(tokens[start:], tokens[start + 1 :]))
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


def _shortest_paths(
    nodes: list[ActivityToken], succ: list[list[ActivityToken]]
) -> list[tuple[list[ActivityToken], list[int], list]]:
    """Brandes' breadth-first search from each node, in node order.

    Takes the sorted nodes and the simple-digraph successors (see
    _read_tally). Each search is (order, sigma, preds): the nodes the source
    reaches in BFS order, the source first; the number of shortest paths to
    each node, 0 for one not reached; and the shortest-path predecessors of
    each reached node but the source, None for every other node.
    """
    searches = []
    for source in nodes:
        dist = [-1] * len(succ)
        sigma = [0] * len(succ)
        preds: list = [None] * len(succ)
        dist[source], sigma[source] = 0, 1
        order = [source]
        for v in order:  # grows while it is walked: a FIFO queue
            next_dist, sigma_v = dist[v] + 1, sigma[v]
            for w in succ[v]:
                if dist[w] < 0:
                    dist[w], sigma[w], preds[w] = next_dist, sigma_v, [v]
                    order.append(w)
                elif dist[w] == next_dist:
                    sigma[w] += sigma_v
                    preds[w].append(v)
        searches.append((order, sigma, preds))
    return searches


def _betweenness_numerators(
    nodes: list[ActivityToken], succ: list[list[ActivityToken]], searches: list
) -> tuple[dict[EdgePair, int], int]:
    """Edge betweenness as integer numerators over one common denominator.

    Takes the sorted nodes, the simple-digraph successors (see _read_tally)
    and their searches (see _shortest_paths).
    Returns (numerators, denominator): numerators keyed by (from, to) in
    token order for every edge of the collapsed simple digraph, and the edge
    (u, v) has betweenness numerators[u, v] / denominator.

    Self-loops are excluded and parallel edges collapse to one: shortest
    paths never traverse a loop and multiplicity does not change path
    structure. For each ordered node pair (s, t) with s != t and at least
    one path, an edge accumulates the fraction of shortest s-t paths
    passing through it; the sum is normalized by 1/(n(n-1)).

    Brandes' accumulation (Brandes 2001; edge variant, Brandes 2008) with
    one BFS per source s. D is the lcm of the shortest-path counts sigma of
    every node each source reaches. With sigma_x the number of shortest s-x
    paths and sigma_wt that of shortest w-t paths, (1 + delta_w) / sigma_w =
    1 / sigma_w plus the sum of sigma_wt / sigma_t over the targets t whose
    shortest paths from s pass through w, and every denominator there
    divides D. So the loop keeps D * delta_w as an integer, and each edge
    contribution sigma_v * (D + D * delta_w) // sigma_w is an exact division.
    """
    # sigma is 0 exactly at the nodes a source does not reach.
    denominator = math.lcm(*(set().union(*[sigma for _, sigma, _ in searches]) - {0}))
    # into[w][v] is the numerator of edge (v, w) while it accumulates.
    into = [[0] * len(succ) for _ in succ]
    for order, sigma, preds in searches:
        # Accumulate D * delta in reverse BFS order; the source has no preds.
        delta = [0] * len(succ)
        for w in order[:0:-1]:
            share = (denominator + delta[w]) // sigma[w]
            into_w = into[w]
            for v in preds[w]:
                contribution = sigma[v] * share
                into_w[v] += contribution
                delta[v] += contribution
    n = len(nodes)
    numerators = {(v, w): into[w][v] for v in nodes for w in succ[v]}
    return numerators, denominator * n * (n - 1)


def compute_metrics(g: ActivityGraph) -> GraphMetrics:
    """All structural metrics of one activity graph (see GraphMetrics)."""
    n = g.num_nodes
    nodes = sorted(g.nodes)
    self_loops, indegree, succ = _read_tally(g)
    centrality = [(v, indegree[v] / (n - 1) if n > 1 else 0.0) for v in nodes]
    searches = _shortest_paths(nodes, succ)
    numerators, denominator = _betweenness_numerators(nodes, succ, searches)
    central = None
    if numerators:
        # One scan in (from, to) order: max keeps the first of tied edges.
        edge = max(numerators, key=numerators.__getitem__)
        central = edge, numerators[edge] / denominator  # int / int rounds correctly
    return GraphMetrics(
        num_nodes=n,
        num_edges=g.num_edges,
        density=g.num_edges / (n * (n - 1)) if n > 1 else 0.0,
        num_self_loops=self_loops,
        # Two nodes share a component exactly when they reach the same nodes.
        num_scc=len({frozenset(order) for order, _, _ in searches}),
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
