"""Independent brute-force oracles used to check the fast implementations.

Everything here deliberately avoids the algorithms it verifies: n-gram
counts come from joined token names, SCC counts from pairwise mutual
reachability, betweenness from explicit enumeration of every shortest path,
the SVM dual from a generic constrained QP solver, and RBF decision values
from explicit differences, one kernel value at a time.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np
from scipy import optimize

from mooctrace.model import Csr


def csr(X) -> Csr:
    """The Csr matrix of a dense 2-D array (or nested list) of rows."""
    X = np.asarray(X, dtype=float)
    rows, cols = np.nonzero(X)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(X)))))
    return Csr(indptr, cols, X[rows, cols], X.shape[1])


def dense(matrix: Csr) -> np.ndarray:
    """The dense array of a Csr matrix's rows."""
    out = np.zeros((len(matrix), matrix.n_features))
    rows = np.repeat(np.arange(len(matrix)), np.diff(matrix.indptr))
    out[rows, matrix.indices] = matrix.data
    return out


def ngram_counts_bruteforce(tokens) -> dict[str, int]:
    """Counts of every contiguous window of 2..5 tokens, by "ng:" name."""
    names = [t.name for t in tokens]
    counts: dict[str, int] = {}
    for n in range(2, 6):
        for i in range(len(names) - n + 1):
            name = "ng:" + "_".join(names[i : i + n])
            counts[name] = counts.get(name, 0) + 1
    return counts


def scc_count_bruteforce(nodes, edges) -> int:
    """Count SCCs via pairwise reachability closure."""
    nodes = list(nodes)
    succ = {u: set() for u in nodes}
    for u, v in edges:
        succ[u].add(v)

    def reachable(start):
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    reach = {u: reachable(u) for u in nodes}
    classes = []
    for u in nodes:
        for cls in classes:
            rep = cls[0]
            if u in reach[rep] and rep in reach[u]:
                cls.append(u)
                break
        else:
            classes.append([u])
    return len(classes)


def _all_shortest_paths(succ, source, target, dist):
    """Every shortest source->target path as a list of edge lists."""
    paths = []

    def extend(node, edges_so_far):
        if node == target:
            paths.append(list(edges_so_far))
            return
        for nxt in succ[node]:
            if dist.get(nxt) == dist[node] + 1 and dist[nxt] <= dist[target]:
                edges_so_far.append((node, nxt))
                extend(nxt, edges_so_far)
                edges_so_far.pop()

    extend(source, [])
    return paths


def edge_betweenness_bruteforce(nodes, edges) -> dict:
    """Normalized directed edge betweenness by explicit path enumeration.

    Parallel edges collapse and self-loops drop, mirroring the definition
    under test. Exact Fractions throughout.
    """
    nodes = sorted(nodes)
    succ = {u: sorted({v for (a, v) in set(edges) if a == u and v != u}) for u in nodes}
    bc = {(u, v): Fraction(0) for u in succ for v in succ[u]}
    n = len(nodes)
    if n < 2:
        return bc
    for s in nodes:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for t in nodes:
            if t == s or t not in dist:
                continue
            paths = _all_shortest_paths(succ, s, t, dist)
            sigma = len(paths)
            for path in paths:
                for edge in path:
                    bc[edge] += Fraction(1, sigma)
    norm = Fraction(1, n * (n - 1))
    return {e: v * norm for e, v in bc.items()}


def rbf_decision_bruteforce(support_vectors, alphas, sv_labels, bias, gamma, X):
    """sum_i alpha_i y_i exp(-gamma ||sv_i - x||^2) + bias for each row x of X.

    Loops over rows and support vectors; each squared distance is the sum of
    squared coordinate differences, never the norm expansion under test.
    """
    values = []
    for x in X:
        total = 0.0
        for sv, alpha, label in zip(support_vectors, alphas, sv_labels):
            diff = np.asarray(sv, dtype=float) - np.asarray(x, dtype=float)
            total += alpha * label * math.exp(-gamma * float(diff @ diff))
        values.append(total + bias)
    return np.array(values)


def svm_dual_objective(model) -> float:
    """A trained model's dual objective sum(a) - a'Qa/2 over its support vectors.

    Q_ij = y_i y_j K(sv_i, sv_j), each kernel value from explicit differences
    (rbf_decision_bruteforce with zero bias), not from the solver's gradient.
    """
    sv = dense(model.support_vectors)
    kernel_sums = rbf_decision_bruteforce(sv, model.alphas, model.sv_labels, 0.0,
                                          model.params.gamma, sv)
    return float(model.alphas.sum() - 0.5 * (model.alphas * model.sv_labels) @ kernel_sums)


def svm_dual_qp(X, y01, C_per_example, gamma):
    """Solve the soft-margin dual with a generic convex-QP solver.

    Returns (alphas, dual objective in maximization form).
    """
    X = np.asarray(X, dtype=float)
    y = np.where(np.asarray(y01) == 1, 1.0, -1.0)
    n = len(y)
    sq = np.sum(X**2, axis=1)
    K = np.exp(-gamma * (sq[:, None] + sq[None, :] - 2.0 * X @ X.T))
    Q = (y[:, None] * y[None, :]) * K

    def objective(a):
        return 0.5 * a @ Q @ a - a.sum()

    def grad(a):
        return Q @ a - 1.0

    result = optimize.minimize(
        objective,
        x0=np.zeros(n),
        jac=grad,
        bounds=[(0.0, c) for c in C_per_example],
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return result.x, -objective(result.x)
