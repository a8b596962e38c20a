import random
from fractions import Fraction

import pytest

from mooctrace import actgraph
from mooctrace.events import ActivityToken as T
from oracles import edge_betweenness_bruteforce, scc_count_bruteforce

WORKED = [T.Vt, T.Po, T.Vt, T.Po, T.Po]


def seq(*names):
    return [T[n] for n in names]


class TestBuildGraph:
    def test_worked_example(self):
        g = actgraph.build_graph(WORKED)
        assert g.nodes == frozenset({T.Vt, T.Po})
        assert g.edges == ((T.Vt, T.Po), (T.Po, T.Vt), (T.Vt, T.Po), (T.Po, T.Po))

    def test_single_token(self):
        g = actgraph.build_graph([T.PL])
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_empty(self):
        g = actgraph.build_graph([])
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_self_loop_chain(self):
        g = actgraph.build_graph(seq("PL", "PL", "PL"))
        assert g.num_nodes == 1
        assert g.edges == ((T.PL, T.PL), (T.PL, T.PL))


class TestDensity:
    def test_worked_example_exceeds_one(self):
        assert actgraph.density(actgraph.build_graph(WORKED)) == 2.0

    def test_single_node_convention(self):
        assert actgraph.density(actgraph.build_graph([T.PL])) == 0.0
        assert actgraph.density(actgraph.build_graph(seq("PL", "PL"))) == 0.0

    def test_three_cycle(self):
        g = actgraph.build_graph(seq("PL", "PA", "FW", "PL"))
        assert actgraph.density(g) == 0.5


class TestSelfLoops:
    @pytest.mark.parametrize(
        "tokens,expected",
        [
            (WORKED, 1),
            (seq("PL", "PL", "PL"), 2),
            (seq("PL", "PA"), 0),
        ],
    )
    def test_counts(self, tokens, expected):
        assert actgraph.count_self_loops(actgraph.build_graph(tokens)) == expected


class TestScc:
    def test_mutual_pair(self):
        assert actgraph.count_scc(actgraph.build_graph(WORKED)) == 1

    def test_chain(self):
        assert actgraph.count_scc(actgraph.build_graph(seq("PL", "PA"))) == 2

    def test_single_node(self):
        assert actgraph.count_scc(actgraph.build_graph([T.PL])) == 1

    def test_empty_graph(self):
        assert actgraph.count_scc(actgraph.build_graph([])) == 0


class TestTopIndegree:
    def test_worked_example_multiplicity(self):
        top = actgraph.top_indegree(actgraph.build_graph(WORKED))
        assert top == [(T.Po, 3.0), (T.Vt, 1.0)]

    def test_single_node_zero(self):
        assert actgraph.top_indegree(actgraph.build_graph([T.PL])) == [(T.PL, 0.0)]

    def test_star(self):
        # A->B, C->B, B->D over four nodes: B leads with 2/3.
        g = actgraph.ActivityGraph(
            frozenset({T.PL, T.PA, T.FW, T.BW}),
            ((T.PL, T.PA), (T.FW, T.PA), (T.PA, T.BW)),
        )
        top = actgraph.top_indegree(g)
        assert top[0] == (T.PA, pytest.approx(2 / 3))
        assert len(top) == 3

    def test_tie_breaks_by_token_order(self):
        g = actgraph.build_graph(seq("Vt", "Po", "Vt"))
        top = actgraph.top_indegree(g)
        assert top == [(T.Po, 1.0), (T.Vt, 1.0)]

    def test_indegree_sums_to_edge_count(self):
        g = actgraph.build_graph(WORKED)
        centrality = actgraph.indegree_centrality(g)
        assert sum(centrality.values()) * (g.num_nodes - 1) == g.num_edges


class TestCentralTransition:
    def test_star_path_edge(self):
        g = actgraph.ActivityGraph(
            frozenset({T.PL, T.PA, T.FW, T.BW}),
            ((T.PL, T.PA), (T.FW, T.PA), (T.PA, T.BW)),
        )
        edge, value = actgraph.central_transition(g)
        assert edge == (T.PA, T.BW)
        assert value == pytest.approx(3 / 12)

    def test_single_edge(self):
        g = actgraph.build_graph(seq("PL", "PA"))
        edge, value = actgraph.central_transition(g)
        assert edge == (T.PL, T.PA)
        assert value == pytest.approx(0.5)

    def test_only_self_loops(self):
        g = actgraph.build_graph(seq("PL", "PL", "PL"))
        assert actgraph.central_transition(g) is None

    def test_empty(self):
        assert actgraph.central_transition(actgraph.build_graph([])) is None


def exact_betweenness(g):
    """Edge betweenness as exact Fractions, from the integer numerators."""
    numerators, denominator = actgraph._betweenness_numerators(g)
    return {edge: Fraction(num, denominator) for edge, num in numerators.items()}


def random_tokens(rng, max_len=12):
    alphabet = list(T)
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


class TestAgainstOracles:
    def test_scc_matches_bruteforce(self):
        rng = random.Random(20240817)
        for _ in range(400):
            tokens = random_tokens(rng)
            g = actgraph.build_graph(tokens)
            assert actgraph.count_scc(g) == scc_count_bruteforce(g.nodes, g.edges)

    def test_betweenness_matches_bruteforce_exactly(self):
        rng = random.Random(48151623)
        for _ in range(300):
            tokens = random_tokens(rng)
            g = actgraph.build_graph(tokens)
            assert exact_betweenness(g) == edge_betweenness_bruteforce(
                g.nodes, g.edges
            )

    def test_long_sequences_match_bruteforce_exactly(self):
        # TCurr graphs run to dozens of distinct edges; short random
        # sequences never reach large shortest-path counts or denominators.
        rng = random.Random(20261018)
        alphabet = list(T)
        for _ in range(100):
            size = rng.choice([len(alphabet), rng.randint(2, len(alphabet) - 1)])
            letters = rng.sample(alphabet, size)
            tokens = [rng.choice(letters) for _ in range(rng.randint(20, 200))]
            g = actgraph.build_graph(tokens)
            oracle = edge_betweenness_bruteforce(g.nodes, g.edges)
            assert exact_betweenness(g) == oracle
            best = max(
                oracle.items(), key=lambda kv: (kv[1], -kv[0][0].value, -kv[0][1].value)
            )
            assert actgraph.central_transition(g) == (best[0], float(best[1]))

    def test_metric_identities(self):
        rng = random.Random(7)
        for _ in range(200):
            tokens = random_tokens(rng)
            g = actgraph.build_graph(tokens)
            if tokens:
                assert g.num_edges == len(tokens) - 1
            n = g.num_nodes
            if n >= 2:
                assert actgraph.density(g) * (n * (n - 1)) == g.num_edges

    def test_relabeling_permutes_metrics(self):
        # Swapping two tokens through a bijection preserves all counts.
        rng = random.Random(99)
        alphabet = list(T)
        for _ in range(50):
            tokens = random_tokens(rng)
            mapping = dict(zip(alphabet, rng.sample(alphabet, len(alphabet))))
            relabeled = [mapping[t] for t in tokens]
            g1 = actgraph.build_graph(tokens)
            g2 = actgraph.build_graph(relabeled)
            assert actgraph.count_scc(g1) == actgraph.count_scc(g2)
            assert actgraph.count_self_loops(g1) == actgraph.count_self_loops(g2)
            assert actgraph.density(g1) == actgraph.density(g2)
            bc1 = exact_betweenness(g1)
            bc2 = exact_betweenness(g2)
            assert {(mapping[u], mapping[v]): x for (u, v), x in bc1.items()} == bc2


class TestDotExport:
    def test_sentinel_edges(self):
        g = actgraph.build_graph(seq("Vt", "Po"))
        dot = actgraph.export_dot(g, seq("Vt", "Po"))
        assert '"Be" -> "Vt";' in dot
        assert '"Vt" -> "Po";' in dot
        assert '"Po" -> "En";' in dot

    def test_multiplicity_width(self):
        dot = actgraph.export_dot(actgraph.build_graph(WORKED), WORKED)
        assert '"Vt" -> "Po" [penwidth=2.0, label="2"];' in dot

    def test_empty_sequence(self):
        dot = actgraph.export_dot(actgraph.build_graph([]), [])
        assert '"Be"' in dot and '"En"' in dot
        assert "->" not in dot

    def test_sentinels_never_reach_metrics(self):
        g = actgraph.build_graph(WORKED)
        actgraph.export_dot(g, WORKED)
        m = actgraph.compute_metrics(g)
        assert m.num_nodes == 2 and m.num_edges == 4

    def test_deterministic(self):
        g = actgraph.build_graph(WORKED)
        assert actgraph.export_dot(g, WORKED) == actgraph.export_dot(g, WORKED)

    def test_mixed_week_sequence_path(self):
        tokens = seq("PL", "PA", "FW", "RCI", "PA", "Vf", "Po")
        dot = actgraph.export_dot(actgraph.build_graph(tokens), tokens)
        assert '"Be" -> "PL";' in dot
        assert '"Po" -> "En";' in dot
        declared = [l for l in dot.splitlines() if "[shape=circle" in l]
        assert len(declared) == 6  # distinct activities (PA repeats)


class TestCsvExport:
    def test_row_shape(self):
        m = actgraph.compute_metrics(actgraph.build_graph(WORKED))
        row = actgraph.metrics_csv_row(7, 3, "curr", m)
        assert row.startswith("7,3,curr,2,4,2,1,1,")
        assert row.count(",") == actgraph.METRICS_CSV_HEADER.count(",")
