"""Initial placement strategies."""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from .._deadline import check_deadline
from ..arch.coupling import CouplingGraph
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph

#: Hill-climb moves between two deadline checks in
#: :func:`quadratic_placement` (one move costs a few microseconds).
DEADLINE_CHECK_MOVES = 256


def trivial_placement(coupling: CouplingGraph,
                      problem: ProblemGraph) -> Mapping:
    """Logical ``i`` on physical ``i``.

    For clique inputs every placement behaves identically (Section 4,
    Discussion), so this is the default.
    """
    return Mapping.trivial(problem.n_vertices, coupling.n_qubits)


def degree_placement(coupling: CouplingGraph,
                     problem: ProblemGraph,
                     center: Optional[int] = None) -> Mapping:
    """Place high-degree problem vertices on central, well-connected qubits.

    A BFS from the architecture's most central qubit enumerates physical
    sites from the core outwards; problem vertices are assigned in
    decreasing problem-degree order.  This mirrors the placement heuristics
    of the QAIM baseline and helps the greedy router on sparse inputs.
    """
    if center is None:
        ecc = coupling.distance_matrix.max(axis=1)
        center = int(ecc.argmin())
    order = []
    seen = {center}
    queue = deque([center])
    while queue:
        q = queue.popleft()
        order.append(q)
        for nbr in coupling.neighbors(q):
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    # Disconnected leftovers (shouldn't happen on our architectures).
    order.extend(q for q in range(coupling.n_qubits) if q not in seen)

    degrees = problem.degrees()
    by_degree = sorted(range(problem.n_vertices),
                       key=lambda v: (-degrees[v], v))
    log_to_phys = [0] * problem.n_vertices
    for physical, logical in zip(order, by_degree):
        log_to_phys[logical] = physical
    return Mapping(log_to_phys, coupling.n_qubits)


def noise_aware_placement(coupling: CouplingGraph,
                          problem: ProblemGraph,
                          noise) -> Mapping:
    """Grow a connected region of high-quality qubits (Factor III).

    Each physical qubit is scored by the mean success rate of its incident
    couplings times its readout fidelity.  Starting from the best qubit,
    the region grows by always absorbing the best-scoring frontier qubit,
    yielding a compact, well-calibrated patch; high-degree problem
    vertices are assigned first (as in :func:`degree_placement`).
    """
    def quality(q: int) -> float:
        edges = [1.0 - noise.edge_error(q, nbr)
                 for nbr in coupling.neighbors(q)]
        edge_quality = sum(edges) / len(edges) if edges else 0.0
        return edge_quality * (1.0 - noise.readout_error[q])

    scores = {q: quality(q) for q in range(coupling.n_qubits)}
    start = max(scores, key=lambda q: (scores[q], -q))
    chosen = [start]
    chosen_set = {start}
    frontier = set(coupling.neighbors(start))
    while len(chosen) < problem.n_vertices:
        if not frontier:  # disconnected leftovers
            remaining = [q for q in range(coupling.n_qubits)
                         if q not in chosen_set]
            frontier = {max(remaining, key=lambda q: scores[q])}
        best = max(frontier, key=lambda q: (scores[q], -q))
        frontier.discard(best)
        chosen.append(best)
        chosen_set.add(best)
        frontier.update(n for n in coupling.neighbors(best)
                        if n not in chosen_set)

    degrees = problem.degrees()
    by_degree = sorted(range(problem.n_vertices),
                       key=lambda v: (-degrees[v], v))
    log_to_phys = [0] * problem.n_vertices
    for physical, logical in zip(chosen, by_degree):
        log_to_phys[logical] = physical
    return Mapping(log_to_phys, coupling.n_qubits)


def quadratic_placement(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    iterations: Optional[int] = None,
    seed: int = 0,
    initial: Optional[Mapping] = None,
) -> Mapping:
    """Distance-minimising placement by pairwise-exchange local search.

    Starts from :func:`degree_placement` (or ``initial``) and hill-climbs
    on the summed physical distance over problem edges (the
    quadratic-assignment objective 2QAN introduced).  The iteration budget
    is capped so the search stays effectively linear at large scale.
    """
    rng = random.Random(seed)
    mapping = (initial.copy() if initial is not None
               else degree_placement(coupling, problem))
    # Plain nested lists: ~10x faster than numpy scalar indexing in the
    # tight hill-climbing loop below.
    dist = coupling.distance_matrix.tolist()
    n = problem.n_vertices
    if iterations is None:
        iterations = min(8 * n * n, 60_000)

    adjacency = {v: problem.neighbors(v) for v in range(n)}
    log_to_phys = mapping.log_to_phys

    def vertex_cost(v: int, position: int) -> int:
        row = dist[position]
        return sum(row[log_to_phys[w]] for w in adjacency[v])

    for move in range(iterations):
        if not move % DEADLINE_CHECK_MOVES:
            check_deadline()
        a = rng.randrange(n)
        pa = mapping.physical(a)
        pb = rng.choice(coupling.neighbors(pa))
        b = mapping.logical(pb)
        before = vertex_cost(a, pa) + (vertex_cost(b, pb)
                                       if b is not None else 0)
        mapping.swap_physical(pa, pb)
        after = vertex_cost(a, pb) + (vertex_cost(b, pa)
                                      if b is not None else 0)
        if after - before > 0:
            mapping.swap_physical(pa, pb)  # revert
    return mapping
