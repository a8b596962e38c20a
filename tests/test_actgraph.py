import random
from fractions import Fraction

import pytest

from mooctrace import actgraph
from mooctrace.events import ActivityToken as T
from oracles import edge_betweenness_bruteforce, scc_count_bruteforce

WORKED = [T.Vt, T.Po, T.Vt, T.Po, T.Po]


def seq(*names):
    return [T[n] for n in names]


def metrics(tokens):
    return actgraph.compute_metrics(actgraph.build_graph(tokens))


class TestBuildGraph:
    def test_worked_example(self):
        g = actgraph.build_graph(WORKED)
        assert g.tokens == tuple(WORKED)
        assert g.nodes == frozenset({T.Vt, T.Po})
        assert g.edges == ((T.Vt, T.Po), (T.Po, T.Vt), (T.Vt, T.Po), (T.Po, T.Po))
        # Distinct pairs in token order (Po < Vt), each with its count.
        assert list(g.multiplicity.items()) == [
            ((T.Po, T.Po), 1), ((T.Po, T.Vt), 1), ((T.Vt, T.Po), 2)
        ]

    def test_single_token(self):
        g = actgraph.build_graph([T.PL])
        assert g.num_nodes == 1 and g.num_edges == 0
        assert g.edges == () and g.multiplicity == {}

    def test_empty(self):
        g = actgraph.build_graph([])
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_self_loop_chain(self):
        g = actgraph.build_graph(seq("PL", "PL", "PL"))
        assert g.num_nodes == 1
        assert g.edges == ((T.PL, T.PL), (T.PL, T.PL))
        assert g.multiplicity == {(T.PL, T.PL): 2}


class TestDensity:
    def test_worked_example_exceeds_one(self):
        assert metrics(WORKED).density == 2.0

    def test_single_node_convention(self):
        assert metrics([T.PL]).density == 0.0
        assert metrics(seq("PL", "PL")).density == 0.0

    def test_three_cycle(self):
        assert metrics(seq("PL", "PA", "FW", "PL")).density == 0.5


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
        assert metrics(tokens).num_self_loops == expected


class TestScc:
    def test_mutual_pair(self):
        assert metrics(WORKED).num_scc == 1

    def test_chain(self):
        assert metrics(seq("PL", "PA")).num_scc == 2

    def test_single_node(self):
        assert metrics([T.PL]).num_scc == 1

    def test_empty_graph(self):
        assert metrics([]).num_scc == 0


# FW->PA, PA->PL, PL->PA, PA->BW over four nodes: PA has indegree 2 of n-1 = 3,
# PL and BW 1 each, FW none.
STAR = seq("FW", "PA", "PL", "PA", "BW")


class TestTopIndegree:
    def test_worked_example_multiplicity(self):
        assert metrics(WORKED).top_indegree == ((T.Po, 3.0), (T.Vt, 1.0))

    def test_single_node_zero(self):
        assert metrics([T.PL]).top_indegree == ((T.PL, 0.0),)

    def test_star(self):
        top = metrics(STAR).top_indegree
        assert top[0] == (T.PA, pytest.approx(2 / 3))
        assert top[1:] == ((T.PL, pytest.approx(1 / 3)), (T.BW, pytest.approx(1 / 3)))

    def test_tie_breaks_by_token_order(self):
        assert metrics(seq("Vt", "Po", "Vt")).top_indegree == ((T.Po, 1.0), (T.Vt, 1.0))

    def test_indegree_sums_to_edge_count(self):
        # Two nodes, so the top three hold every node's centrality.
        m = metrics(WORKED)
        assert sum(c for _, c in m.top_indegree) * (m.num_nodes - 1) == m.num_edges


class TestCentralTransition:
    def test_star_path_edge(self):
        # Over the 12 ordered pairs, PA->BW carries FW->BW, PA->BW and PL->BW,
        # and FW->PA carries FW->PA, FW->PL and FW->BW: a 3/12 tie that PA,
        # the lower from-token, wins. PA->PL and PL->PA carry 2 each.
        edge, value = metrics(STAR).central_transition
        assert edge == (T.PA, T.BW)
        assert value == 3 / 12

    def test_single_edge(self):
        edge, value = metrics(seq("PL", "PA")).central_transition
        assert edge == (T.PL, T.PA)
        assert value == pytest.approx(0.5)

    def test_only_self_loops(self):
        assert metrics(seq("PL", "PL", "PL")).central_transition is None

    def test_empty(self):
        assert metrics([]).central_transition is None


def exact_betweenness(g):
    """Edge betweenness as exact Fractions, from the integer numerators."""
    _, _, succ = actgraph._read_tally(g)
    numerators, denominator = actgraph._betweenness_numerators(sorted(g.nodes), succ)
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
            assert actgraph.compute_metrics(g).num_scc == scc_count_bruteforce(
                g.nodes, g.edges
            )

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
            assert actgraph.compute_metrics(g).central_transition == (
                best[0], float(best[1])
            )

    def test_metric_identities(self):
        rng = random.Random(7)
        for _ in range(200):
            tokens = random_tokens(rng)
            g = actgraph.build_graph(tokens)
            if tokens:
                assert g.num_edges == len(tokens) - 1
                assert sum(g.multiplicity.values()) == g.num_edges
            n = g.num_nodes
            if n >= 2:
                assert actgraph.compute_metrics(g).density * (n * (n - 1)) == g.num_edges

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
            m1, m2 = actgraph.compute_metrics(g1), actgraph.compute_metrics(g2)
            assert m1.num_scc == m2.num_scc
            assert m1.num_self_loops == m2.num_self_loops
            assert m1.density == m2.density
            bc1 = exact_betweenness(g1)
            bc2 = exact_betweenness(g2)
            assert {(mapping[u], mapping[v]): x for (u, v), x in bc1.items()} == bc2


class TestDotExport:
    def test_sentinel_edges(self):
        dot = actgraph.export_dot(actgraph.build_graph(seq("Vt", "Po")))
        assert '"Be" -> "Vt";' in dot
        assert '"Vt" -> "Po";' in dot
        assert '"Po" -> "En";' in dot

    def test_multiplicity_width(self):
        dot = actgraph.export_dot(actgraph.build_graph(WORKED))
        assert '"Vt" -> "Po" [penwidth=2.0, label="2"];' in dot

    def test_empty_sequence(self):
        dot = actgraph.export_dot(actgraph.build_graph([]))
        assert '"Be"' in dot and '"En"' in dot
        assert "->" not in dot

    def test_sentinels_never_reach_metrics(self):
        g = actgraph.build_graph(WORKED)
        actgraph.export_dot(g)
        m = actgraph.compute_metrics(g)
        assert m.num_nodes == 2 and m.num_edges == 4

    def test_deterministic(self):
        g = actgraph.build_graph(WORKED)
        assert actgraph.export_dot(g) == actgraph.export_dot(g)

    def test_mixed_week_sequence_path(self):
        tokens = seq("PL", "PA", "FW", "RCI", "PA", "Vf", "Po")
        dot = actgraph.export_dot(actgraph.build_graph(tokens))
        assert '"Be" -> "PL";' in dot
        assert '"Po" -> "En";' in dot
        declared = [l for l in dot.splitlines() if "[shape=circle" in l]
        assert len(declared) == 6  # distinct activities (PA repeats)


class TestCsvExport:
    def test_row_shape(self):
        m = metrics(WORKED)
        row = actgraph.metrics_csv_row(7, 3, "curr", m)
        assert row.startswith("7,3,curr,2,4,2,1,1,")
        assert row.count(",") == actgraph.METRICS_CSV_HEADER.count(",")
