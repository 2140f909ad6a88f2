"""The ATA pattern-prediction component — Section 6.3.

Given the current mapping and the remaining problem edges, produce the
circuit suffix that finishes everything by following the structured ATA
pattern:

* **Range detector** — split the remaining problem graph into connected
  components, map each to the minimal structured sub-region of the
  architecture (via ``pattern.restrict``), and merge regions that overlap.
  Disjoint regions run their patterns in parallel (ASAP layering overlaps
  them automatically).
* **Pattern generator** — execute each region's pattern from the current
  mapping, skipping absent gates and stopping at the last needed one.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..arch.coupling import CouplingGraph
from ..ata.base import AtaPattern
from ..ata.executor import CircuitSink
from ..ata.simulate import WalkState, run_suffix
from ..ir.circuit import Circuit
from ..ir.mapping import Mapping
from ..problems.graphs import ProblemGraph


def detect_ranges(
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
) -> List[Tuple[AtaPattern, Set[Tuple[int, int]]]]:
    """Regions (restricted patterns) with their edge groups, Fig 19 style.

    Overlapping regions are merged with a union-find sweep over a
    qubit-ownership map: each round costs O(total region qubits), merges
    every currently-overlapping cluster transitively, and re-restricts
    only clusters that actually grew.  Region bounding boxes only grow
    under union, so any overlap persists until merged — the result is
    the same least fixpoint the quadratic restart-on-every-merge loop
    computed, with final regions never re-restricted.
    """
    remaining = list(remaining)
    if not remaining:
        return []
    # Size the component graph by the true problem size, not the highest
    # index with a *pending* edge — the graphs are equivalent (isolated
    # vertices are omitted from components), but the problem's own vertex
    # count is the honest bound and cannot be invalidated by whichever
    # qubit happens to finish its edges first.
    components = ProblemGraph(
        mapping.n_logical, remaining).connected_components()

    groups: List[Set[int]] = [set(c) for c in components]
    regions: List[AtaPattern] = [
        pattern.restrict({mapping.physical(v) for v in group})
        for group in groups]

    n = len(regions)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while True:
        owner: dict = {}
        grew: Set[int] = set()
        for i in range(n):
            if find(i) != i:
                continue
            for q in regions[i].region:
                j = find(owner.setdefault(q, i))
                if j != i:
                    # Keep the smaller original index as representative —
                    # the order the pairwise loop preserved.
                    keep, gone = (i, j) if i < j else (j, i)
                    parent[gone] = keep
                    groups[keep] |= groups[gone]
                    grew.add(keep)
                    if find(i) != i:
                        break  # region i itself was absorbed
        if not grew:
            break
        for i in sorted(grew):
            if find(i) == i:
                regions[i] = pattern.restrict(
                    {mapping.physical(v) for v in groups[i]})

    order = [i for i in range(n) if find(i) == i]
    edge_groups: List[Set[Tuple[int, int]]] = []
    for i in order:
        group = groups[i]
        edge_groups.append({e for e in remaining if e[0] in group})
    return [(regions[i], edge_group)
            for i, edge_group in zip(order, edge_groups)]


def ata_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    use_range_detection: bool = True,
    circuit: Optional[Circuit] = None,
) -> Tuple[Circuit, Mapping]:
    """Finish the remaining edges by following the structured pattern.

    Returns the (possibly extended) circuit and the final mapping.  Ops for
    disjoint regions are appended sequentially; ASAP layering parallelises
    them, so the reported depth equals the max over regions.
    """
    if circuit is None:
        circuit = Circuit(coupling.n_qubits)
    state = WalkState(mapping)
    run_suffix(coupling, pattern, state, remaining,
               CircuitSink(circuit, gamma, state.p2l),
               use_range_detection=use_range_detection)
    return circuit, state.to_mapping()
