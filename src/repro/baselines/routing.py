"""Shared routing helpers for the baseline compilers."""

from __future__ import annotations

from typing import List, Set, Tuple

from .._deadline import check_deadline
from ..arch.coupling import CouplingGraph
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def route_and_execute(
    coupling: CouplingGraph,
    circuit: Circuit,
    mapping: Mapping,
    pair: Tuple[int, int],
    gamma: float = 0.0,
) -> None:
    """Bring a logical pair together with shortest-path SWAPs, run the gate.

    The endpoint with more routing freedom is not analysed — one endpoint
    simply walks to the other, which is what the non-regularity-aware
    baselines do per gate.  Mutates ``circuit`` and ``mapping``.
    """
    lu, lv = pair
    pu, pv = mapping.physical(lu), mapping.physical(lv)
    path = coupling.shortest_path(pu, pv)
    for k in range(len(path) - 1, 1, -1):
        circuit.append(Op.swap(path[k], path[k - 1]))
        mapping.swap_physical(path[k], path[k - 1])
    circuit.append(Op.cphase(path[0], path[1], gamma,
                             tag=canonical_edge(lu, lv)))


def matching_layers(problem: ProblemGraph) -> List[List[Tuple[int, int]]]:
    """Partition problem edges into maximal-matching layers.

    This models Pauli-string blocking: each layer is a set of mutually
    disjoint interactions that could run simultaneously with unlimited
    connectivity.
    """
    remaining: Set[Tuple[int, int]] = set(problem.edges)
    layers: List[List[Tuple[int, int]]] = []
    while remaining:
        check_deadline()
        used: Set[int] = set()
        layer: List[Tuple[int, int]] = []
        for u, v in sorted(remaining):
            if u in used or v in used:
                continue
            layer.append((u, v))
            used.add(u)
            used.add(v)
        remaining -= set(layer)
        layers.append(layer)
    return layers


def mapping_cost(coupling: CouplingGraph, mapping: Mapping,
                 problem: ProblemGraph) -> int:
    """Sum of physical distances over all problem edges (2QAN's objective)."""
    dist = coupling.distance_matrix
    return int(sum(dist[mapping.physical(u), mapping.physical(v)]
                   for u, v in problem.edges))
