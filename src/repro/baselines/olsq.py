"""QAOA-OLSQ-like baseline (Tan & Cong, ICCAD 2020) — simplified.

OLSQ encodes layout synthesis as a constraint problem and asks a SAT/SMT
solver for a depth-minimal schedule; for QAOA it drops gate-dependency
constraints.  We reproduce its *behavioural* profile — near-optimal depth
at 10-15 qubits, compile times orders of magnitude above the structured
compiler, infeasible beyond toy sizes — with exact A* search where the
node budget allows and wide beam search (top-k states per depth level)
otherwise.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import List, Optional, Tuple

from .._deadline import check_deadline
from ..arch.coupling import CouplingGraph
from ..compiler.result import CompiledResult
from ..exceptions import SolverError
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph
from ..solver.astar import solve_depth_optimal
from ..solver.reference import (_candidate_actions, _conflict_free_subsets,
                                _h, _invert)
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge


def compile_olsq(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    initial_mapping: Optional[Mapping] = None,
    exact_node_budget: int = 150_000,
    beam_width: int = 400,
    children_per_state: int = 128,
) -> CompiledResult:
    """Exact depth-minimal search with a beam-search fallback."""
    start = time.perf_counter()
    if initial_mapping is None:
        initial_mapping = Mapping.trivial(problem.n_vertices,
                                          coupling.n_qubits)
    # The exact expansion enumerates every conflict-free action subset per
    # node — affordable only on genuinely tiny instances (this mirrors the
    # real OLSQ hitting a wall beyond ~15 qubits).
    tiny = problem.n_edges <= 8 and coupling.n_edges <= 8
    exact = False
    circuit = None
    if tiny:
        try:
            result = solve_depth_optimal(
                coupling, sorted(problem.edges),
                initial_mapping=initial_mapping, gamma=gamma,
                max_nodes=exact_node_budget)
            circuit = result.circuit
            exact = True
        except SolverError:
            pass
    if circuit is None:
        circuit = _beam_search(coupling, problem, initial_mapping, gamma,
                               beam_width, children_per_state)
    compiled = CompiledResult(circuit, initial_mapping, "olsq",
                              time.perf_counter() - start)
    compiled.extra["exact"] = exact
    return compiled


def _beam_search(coupling, problem, initial_mapping, gamma, beam_width,
                 children_per_state):
    """Depth-synchronous beam search with the solver's admissible h.

    Child enumeration is capped; because the subset generator emits
    action-rich combinations first, the cap keeps gate-dense candidates.
    """
    dist = coupling.distance_matrix
    hw_edges = sorted(coupling.edges)
    required = frozenset(canonical_edge(u, v) for u, v in problem.edges)

    # Beam entries: (occupancy, remaining, history, swap_count)
    start_state = (initial_mapping.as_tuple(), required, (), 0)
    beam: List[Tuple] = [start_state]
    depth = 0
    max_depth = 8 * coupling.n_qubits + 8 * len(required) + 16
    best_state = start_state
    stall = 0

    while depth < max_depth and stall < 30:
        check_deadline()
        depth += 1
        scored: List[Tuple] = []
        seen = set()
        for occupancy, remaining, history, swap_count in beam:
            log_to_phys = _invert(occupancy, initial_mapping.n_logical)
            actions = _candidate_actions(hw_edges, occupancy, remaining,
                                         log_to_phys, dist, True)
            for action_set in islice(_conflict_free_subsets(actions),
                                     children_per_state):
                new_occ = list(occupancy)
                new_rem = set(remaining)
                new_swaps = swap_count
                for action, u, v in action_set:
                    if action == "gate":
                        lu, lv = new_occ[u], new_occ[v]
                        new_rem.discard(canonical_edge(lu, lv))
                    else:
                        new_occ[u], new_occ[v] = new_occ[v], new_occ[u]
                        new_swaps += 1
                key = (tuple(new_occ), frozenset(new_rem))
                if key in seen:
                    continue
                seen.add(key)
                new_history = history + (action_set,)
                if not new_rem:
                    return _materialise(coupling, initial_mapping,
                                        new_history, gamma)
                child_l2p = _invert(key[0], initial_mapping.n_logical)
                h = _h(key[1], child_l2p, dist)
                # Primary: depth lower bound, then remaining work, then
                # swaps spent (OLSQ's SAT objective also bounds gates).
                scored.append((h + depth, len(new_rem), new_swaps,
                               key[0], key[1], new_history))
        if not scored:
            break
        scored.sort(key=lambda s: (s[0], s[1], s[2]))
        beam = [(occ, rem, hist, swaps)
                for _, _, swaps, occ, rem, hist in scored[:beam_width]]
        leader = min(beam, key=lambda s: len(s[1]))
        if len(leader[1]) < len(best_state[1]):
            best_state = leader
            stall = 0
        else:
            stall += 1

    # Beam stalled (it can cycle through equivalent permutations): take the
    # most advanced state and finish the few leftovers by plain routing.
    from ..ata.executor import greedy_completion
    from ..ir.mapping import Mapping as _Mapping

    occupancy, remaining, history, _ = best_state
    circuit = _materialise(coupling, initial_mapping, history, gamma)
    final = _Mapping.__new__(_Mapping)
    final.phys_to_log = list(occupancy)
    final.log_to_phys = [0] * initial_mapping.n_logical
    for phys, logical in enumerate(occupancy):
        if logical is not None:
            final.log_to_phys[logical] = phys
    greedy_completion(coupling, circuit, final, set(remaining), gamma)
    return circuit


def _materialise(coupling, initial_mapping, history, gamma) -> Circuit:
    circuit = Circuit(coupling.n_qubits)
    occupancy = list(initial_mapping.as_tuple())
    for action_set in history:
        for action, u, v in action_set:
            if action == "gate":
                lu, lv = occupancy[u], occupancy[v]
                circuit.append(
                    Op.cphase(u, v, gamma, tag=canonical_edge(lu, lv)))
        for action, u, v in action_set:
            if action == "swap":
                circuit.append(Op.swap(u, v))
                occupancy[u], occupancy[v] = occupancy[v], occupancy[u]
    return circuit
