"""Output check that shares no code with the compiler's own validators.

It imports nothing from ``repro.ir.validate`` or ``repro.lint``.  A
compiled program is replayed from its initial mapping through its
SWAPs; the logical pair each CPHASE acts on is read from the tracked
mapping, never from the op's tag.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

Edge = Tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _signature(ops) -> List[Tuple[str, Tuple[int, ...]]]:
    return [(op.kind, tuple(op.qubits)) for op in ops]


def replay_program(coupling_edges: Iterable[Edge],
                   problem_edges: Iterable[Edge],
                   initial: Sequence[int],
                   cost_layers: List[int],
                   layer_ops: List[Sequence],
                   final: Sequence[int]) -> List[str]:
    """Problems found replaying a program; empty when it is correct.

    ``layer_ops`` is every layer in program order (mixers included);
    ``cost_layers`` holds the indices into it of the cost layers.  Each
    op must expose ``kind`` and ``qubits``.
    """
    allowed = {_edge(u, v) for u, v in coupling_edges}
    wanted = Counter(_edge(u, v) for u, v in problem_edges)
    log_to_phys = list(initial)
    phys_to_log: Dict[int, int] = {p: q for q, p in enumerate(log_to_phys)}
    problems: List[str] = []
    cost = set(cost_layers)
    for index, ops in enumerate(layer_ops):
        seen: Counter = Counter()
        for op in ops:
            qubits = tuple(op.qubits)
            if len(qubits) == 2 and _edge(*qubits) not in allowed:
                problems.append(f"layer {index}: {op.kind} on {qubits} "
                                "is not a coupling edge")
                continue
            if op.kind == "swap":
                a, b = qubits
                la, lb = phys_to_log.pop(a, None), phys_to_log.pop(b, None)
                if la is not None:
                    phys_to_log[b] = la
                    log_to_phys[la] = b
                if lb is not None:
                    phys_to_log[a] = lb
                    log_to_phys[lb] = a
            elif op.kind == "cphase":
                la, lb = (phys_to_log.get(q) for q in qubits)
                if la is None or lb is None:
                    problems.append(f"layer {index}: cphase on {qubits} "
                                    "touches an unmapped qubit")
                else:
                    seen[_edge(la, lb)] += 1
            elif len(qubits) != 1:
                problems.append(f"layer {index}: unexpected {op.kind}")
        if index in cost and seen != wanted:
            missing = sum((wanted - seen).values())
            extra = sum((seen - wanted).values())
            problems.append(f"cost layer {index}: {missing} problem edges "
                            f"missing, {extra} extra cphase")
        elif index not in cost and seen:
            problems.append(f"layer {index}: cphase outside a cost layer")
    if list(final) != log_to_phys:
        problems.append("replayed final mapping differs from the "
                        "program's final mapping")
    return problems


def check_compiled(coupling, problem, result, layers: int) -> List[str]:
    """Replay a :class:`repro.compiler.CompiledResult` and its program."""
    program = result.program
    if program is None:
        return ["result carries no assembled program"]
    layer_ops = [layer.circuit.ops for layer in program.layers]
    cost = [i for i, layer in enumerate(program.layers)
            if layer.role != "mixer"]
    problems = replay_program(coupling.edges, problem.edges,
                              result.initial_mapping.log_to_phys, cost,
                              layer_ops, program.final_log_to_phys)
    if len(cost) != layers:
        problems.append(f"{len(cost)} cost layers, {layers} requested")
    if list(program.initial_mapping.log_to_phys) != list(
            result.initial_mapping.log_to_phys):
        problems.append("program and result disagree on the initial mapping")
    if _signature(layer_ops[0]) != _signature(result.circuit.ops):
        problems.append("first cost layer is not the compiled circuit")
    swaps = sum(1 for op in result.circuit.ops if op.kind == "swap")
    if swaps != result.swap_count:
        problems.append(f"{swaps} swaps replayed, {result.swap_count} "
                        "reported")
    return problems


def canonical(payload: Dict) -> str:
    """Byte-comparable form of a serve result payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
