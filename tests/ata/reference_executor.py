"""Reference ATA pattern executor: the plain dict/set walk.

This is the executor the library shipped before pattern execution moved
onto the compiled-cycle walk in :mod:`repro.ata.simulate`.  It is kept
here, verbatim, as an independent oracle: it shares no execution code
with the production walk, so ``test_reference_oracle.py`` can pin the
production circuits op for op against it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.ata.base import GATE, AtaPattern
from repro.compiler.prediction import detect_ranges
from repro.ir.circuit import Circuit
from repro.ir.gates import Op, canonical_edge, canonical_edges
from repro.ir.mapping import Mapping


def execute_pattern(
    pattern: AtaPattern,
    initial_mapping: Mapping,
    edges: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    circuit: Optional[Circuit] = None,
    n_physical: Optional[int] = None,
) -> Tuple[Circuit, Mapping, Set[Tuple[int, int]]]:
    """Run a pattern until all ``edges`` (logical pairs) are executed."""
    mapping = initial_mapping.copy()
    needed: Set[Tuple[int, int]] = set(canonical_edges(edges))
    if circuit is None:
        circuit = Circuit(n_physical or mapping.n_physical)
    if not needed:
        return circuit, mapping, needed

    degree: dict = {}
    for u, v in needed:  # det: ok — counts only; degree is never iterated
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    def active(logical) -> bool:
        return logical is not None and degree.get(logical, 0) > 0

    for cycle in pattern.cycles():
        if not needed:
            break
        used: Set[int] = set()
        for action, u, v in cycle:
            if action == GATE:
                lu, lv = mapping.logical(u), mapping.logical(v)
                if lu is None or lv is None:
                    continue
                pair = canonical_edge(lu, lv)
                if pair in needed and u not in used and v not in used:
                    circuit.append(Op.cphase(u, v, gamma, tag=pair))
                    needed.discard(pair)
                    degree[lu] -= 1
                    degree[lv] -= 1
                    used.add(u)
                    used.add(v)
            else:  # structural swap
                if u in used or v in used:
                    continue
                lu, lv = mapping.logical(u), mapping.logical(v)
                if not active(lu) and not active(lv):
                    continue  # moving two finished occupants is a no-op
                circuit.append(Op.swap(u, v))
                mapping.swap_physical(u, v)
                used.add(u)
                used.add(v)
    return circuit, mapping, needed


def greedy_completion(coupling, circuit, mapping, residual, gamma=0.0):
    """Route residual logical pairs with plain shortest-path SWAPs."""
    for pair in sorted(residual):
        lu, lv = pair
        pu, pv = mapping.physical(lu), mapping.physical(lv)
        path = coupling.shortest_path(pu, pv)
        for k in range(len(path) - 1, 1, -1):
            circuit.append(Op.swap(path[k], path[k - 1]))
            mapping.swap_physical(path[k], path[k - 1])
        circuit.append(Op.cphase(path[0], path[1], gamma, tag=pair))
    residual.clear()


def ata_suffix(coupling, pattern, mapping, remaining, gamma=0.0,
               use_range_detection=True, circuit=None):
    """Range detection, one executor run per region, then completion."""
    if circuit is None:
        circuit = Circuit(coupling.n_qubits)
    mapping = mapping.copy()
    remaining = set(remaining)
    if not remaining:
        return circuit, mapping

    if use_range_detection:
        plan = detect_ranges(pattern, mapping, remaining)
    else:
        plan = [(pattern, set(remaining))]

    for region_pattern, edges in plan:
        _, region_mapping, residual = execute_pattern(
            region_pattern, mapping, edges, gamma=gamma, circuit=circuit)
        _absorb(mapping, region_mapping, region_pattern.region)
        if residual:
            greedy_completion(coupling, circuit, mapping, residual, gamma)
    return circuit, mapping


def _absorb(target: Mapping, source: Mapping, region) -> None:
    """Copy region-local occupancy changes from ``source`` into ``target``."""
    for physical in region:
        occupant = source.phys_to_log[physical]
        target.phys_to_log[physical] = occupant
        if occupant is not None:
            target.log_to_phys[occupant] = physical
