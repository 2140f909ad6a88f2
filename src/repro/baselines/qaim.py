"""QAIM-like baseline (Alam et al., MICRO 2020) — simplified.

QAIM ("instruction parallelization-aware compilation") heuristically packs
executable CPHASE gates into cycles and inserts SWAPs for unmapped gates,
guided by connectivity strength.  The reproduction keeps its two defining
traits relative to the other systems:

* commutativity *is* exploited (any pending gate may be scheduled when its
  qubits touch), so it beats fixed-order Paulihedral; but
* SWAP insertion is per-gate single-step chasing without matching-based
  coordination or any architecture-regularity awareness, so it trails the
  structured compiler and degrades with scale.
"""

from __future__ import annotations

import time
from typing import Optional, Set, Tuple

from .._deadline import check_deadline
from ..arch.coupling import CouplingGraph
from ..compiler.mapping import degree_placement
from ..compiler.result import CompiledResult
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def compile_qaim(
    coupling: CouplingGraph,
    problem: ProblemGraph,
    gamma: float = 0.0,
    initial_mapping: Optional[Mapping] = None,
) -> CompiledResult:
    """Cycle-by-cycle scheduling with one-step-per-gate SWAP chasing."""
    start = time.perf_counter()
    if initial_mapping is None:
        initial_mapping = degree_placement(coupling, problem)
    mapping = initial_mapping.copy()
    circuit = Circuit(coupling.n_qubits)
    dist = coupling.distance_matrix

    remaining: Set[Tuple[int, int]] = {canonical_edge(u, v)
                                       for u, v in problem.edges}
    guard = 0
    guard_limit = 60 * coupling.n_qubits + 6 * len(remaining) + 100
    while remaining:
        check_deadline()
        guard += 1
        busy: Set[int] = set()
        scheduled_any = False
        # Schedule every executable gate first-come (no colouring).
        for u, v in sorted(coupling.edges):
            if u in busy or v in busy:
                continue
            lu, lv = mapping.logical(u), mapping.logical(v)
            if lu is None or lv is None:
                continue
            pair = canonical_edge(lu, lv)
            if pair in remaining:
                circuit.append(Op.cphase(u, v, gamma, tag=pair))
                remaining.discard(pair)
                busy.add(u)
                busy.add(v)
                scheduled_any = True
        if not remaining:
            break
        # One chase step per pending gate, closest pairs first.
        order = sorted(
            remaining,
            key=lambda p: int(dist[mapping.physical(p[0]),
                                   mapping.physical(p[1])]))
        progressed = False
        for lu, lv in order:
            pu, pv = mapping.physical(lu), mapping.physical(lv)
            if int(dist[pu, pv]) <= 1 or pu in busy:
                continue
            step = _step_towards(coupling, pu, pv, dist)
            if step is None or step in busy:
                continue
            circuit.append(Op.swap(pu, step))
            mapping.swap_physical(pu, step)
            busy.add(pu)
            busy.add(step)
            progressed = True
        stuck = not scheduled_any and not progressed
        if remaining and (stuck or guard > guard_limit):
            # Safety net against chase oscillation: route directly.
            from ..ata.executor import greedy_completion

            greedy_completion(coupling, circuit, mapping, remaining, gamma)
            break

    return CompiledResult(circuit, initial_mapping, "qaim",
                          time.perf_counter() - start)


def _step_towards(coupling: CouplingGraph, source: int, target: int,
                  dist) -> Optional[int]:
    for nbr in coupling.neighbors(source):
        if int(dist[nbr, target]) < int(dist[source, target]):
            return nbr
    return None
