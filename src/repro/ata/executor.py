"""Pattern executor: turn an abstract ATA schedule into a compiled circuit.

Execution itself is the compiled-cycle walk of :mod:`repro.ata.simulate`
— the single implementation of the pattern rules (skip gates the
problem does not need, elide SWAPs between finished qubits, stop at the
last needed gate).  This module points that walk at a
:class:`CircuitSink`, so circuits are built from exactly the events the
candidate scorer measures.

Any residual edges a pattern could not cover are finished by
:func:`greedy_completion`, keeping the overall compilation unconditionally
correct.  None has been observed on the bundled architectures, Mumbai
included (see ``docs/algorithms.md``); the completion is a safety net.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from ..arch.coupling import CouplingGraph
from ..ir.circuit import Circuit
from ..ir.gates import Op, canonical_edge, canonical_edges
from ..ir.mapping import Mapping
from .base import AtaPattern
from .simulate import K_CPHASE, WalkState, complete_residual, walk_region


class CircuitSink:
    """Walk-event sink that appends the emitted ops to ``circuit``.

    ``occupants`` is the live physical->logical table the walk updates
    in place; a CPHASE is tagged with the logical pair it finds there.
    """

    def __init__(self, circuit: Circuit, gamma: float, occupants) -> None:
        self.circuit = circuit
        self.gamma = gamma
        self.occupants = occupants

    def feed2(self, code: int, u: int, v: int) -> None:
        if code == K_CPHASE:
            pair = canonical_edge(int(self.occupants[u]),
                                  int(self.occupants[v]))
            self.circuit.append(Op.cphase(u, v, self.gamma, tag=pair))
        else:
            self.circuit.append(Op.swap(u, v))

    def feed_batch(self, codes: np.ndarray, us: np.ndarray,
                   vs: np.ndarray) -> None:
        for code, u, v in zip(codes.tolist(), us.tolist(), vs.tolist()):
            self.feed2(code, u, v)


def execute_pattern(
    pattern: AtaPattern,
    initial_mapping: Mapping,
    edges: Iterable[Tuple[int, int]],
    gamma: float = 0.0,
    circuit: Optional[Circuit] = None,
    n_physical: Optional[int] = None,
) -> Tuple[Circuit, Mapping, Set[Tuple[int, int]]]:
    """Run a pattern until all ``edges`` (logical pairs) are executed.

    Returns ``(circuit, final_mapping, residual_edges)``.  ``circuit`` may
    be passed in to append onto an existing prefix.
    """
    if circuit is None:
        circuit = Circuit(n_physical or initial_mapping.n_physical)
    state = WalkState(initial_mapping)
    residual = walk_region(state, pattern, canonical_edges(edges),
                           CircuitSink(circuit, gamma, state.p2l))
    return circuit, state.to_mapping(), set(residual)


def greedy_completion(
    coupling: CouplingGraph,
    circuit: Circuit,
    mapping: Mapping,
    residual: Set[Tuple[int, int]],
    gamma: float = 0.0,
) -> None:
    """Route any residual logical pairs with plain shortest-path SWAPs.

    Mutates ``circuit`` and ``mapping`` in place and clears ``residual``.
    """
    complete_residual(coupling, mapping, residual,
                      CircuitSink(circuit, gamma, mapping.phys_to_log))
    residual.clear()


def compile_with_pattern(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    edges: Iterable[Tuple[int, int]],
    initial_mapping: Mapping,
    gamma: float = 0.0,
) -> Tuple[Circuit, Mapping]:
    """Pattern execution plus residual completion; always succeeds."""
    circuit, final_mapping, residual = execute_pattern(
        pattern, initial_mapping, edges, gamma=gamma,
        n_physical=coupling.n_qubits)
    greedy_completion(coupling, circuit, final_mapping, residual, gamma)
    return circuit, final_mapping
