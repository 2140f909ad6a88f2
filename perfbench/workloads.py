"""Request lists for the two workloads.

The problem instances of each workload are one fixed, seeded draw
(:data:`INSTANCE_SEED`), so every run compiles the same problems: the
count metrics are exact across runs, and the spread of a timing comes
from the machine rather than from which graphs were drawn.  ``--seed``
draws the order of the sweep requests and, on serve-mix, which earlier
spec each repeat names.

Sizes are stratified: the range is cut into one stratum per request and
each request draws its size inside its own stratum, so the median
request never falls into a gap between size clusters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seed of the one draw that fixes every workload's problem instances.
INSTANCE_SEED = 2023

@dataclass(frozen=True)
class SweepRequest:
    """One in-process ``compile_qaoa(method="hybrid")`` call."""

    arch: str
    n_qubits: int
    graph_seed: int
    layers: int

    @property
    def label(self) -> str:
        return (f"{self.arch}-{self.n_qubits}-reg3"
                f"-s{self.graph_seed}-p{self.layers}")


def _stratified(rng: random.Random, low: int, high: int,
                count: int) -> List[int]:
    width = (high - low) / count
    return [int(low + width * (i + rng.random())) for i in range(count)]


def sparse_sweep(seed: int) -> List[SweepRequest]:
    """3 sparse requests, one per third of 128-224, on heavy-hex, grid
    and heavy-hex.  The grid one compiles a ``layers=3`` program, so
    program assembly is covered."""
    rng = random.Random(f"sparse-sweep/{INSTANCE_SEED}")
    requests = [SweepRequest(("heavyhex", "grid")[i % 2],
                             size - size % 2,  # 3-regular needs even n
                             rng.randrange(2 ** 31),
                             3 if i == 1 else 1)
                for i, size in enumerate(_stratified(rng, 128, 224, 3))]
    random.Random(f"sparse-sweep/order/{seed}").shuffle(requests)
    return requests


def build_problem(request: SweepRequest):
    from repro.problems import regular_problem_graph

    return regular_problem_graph(request.n_qubits, 3,
                                 seed=request.graph_seed)


# -- serve-mix ---------------------------------------------------------------

#: Per client and pass: specs never seen before, a spec sent by both
#: clients at once (released together by a barrier), and repeats of the
#: client's own earlier specs.  Repeats are three quarters of all
#: requests, so the median request is a store hit well inside that mode;
#: 12 requests (11 compiles and the in-flight follower) are slow, so the
#: tail percentile (10 samples beyond it out of 48) is a compile.
NEW_PER_CLIENT, PAIRS, REPEATS_PER_CLIENT = 5, 1, 18


@dataclass(frozen=True)
class ServeSlot:
    #: ``"new"``, ``"pair"`` or ``"repeat"``.
    kind: str
    payload: Tuple[Tuple[str, object], ...]

    def request(self, request_id: str) -> Dict[str, object]:
        return {"id": request_id, **dict(self.payload)}


def serve_mix(seed: int) -> List[List[ServeSlot]]:
    """Two clients' request sequences for one pass.

    A repeat only names a spec its own client already received a reply
    for, so it is always a store hit; a pair spec is new, so one client
    compiles it and the other joins the in-flight compile.  Which path
    serves each request is therefore fixed by the list.  Only the choice
    of which earlier spec each repeat names depends on ``seed``: where
    the compiles sit in the lists, and so which requests queue behind
    which compile in the one worker, is the same for every seed.
    """
    draw = random.Random(f"serve-mix/{INSTANCE_SEED}")
    archs = ("grid", "heavyhex", "sycamore")
    unique = 2 * NEW_PER_CLIENT + PAIRS
    sizes = [size - size % 2 for size in _stratified(draw, 32, 65, unique)]
    draw.shuffle(sizes)
    # ``regular_for_density`` turns this density into degree 3.
    specs = [(("arch", archs[i % 3]), ("qubits", size),
              ("workload", "reg"), ("density", 3 / (size - 1)),
              ("seed", draw.randrange(2 ** 31)), ("validate", True))
             for i, size in enumerate(sizes)]
    targets = random.Random(f"serve-mix/repeats/{seed}")
    pairs = specs[:PAIRS]
    clients = []
    for client in range(2):
        fresh = specs[PAIRS + client * NEW_PER_CLIENT:
                      PAIRS + (client + 1) * NEW_PER_CLIENT]
        kinds = (["new"] * (NEW_PER_CLIENT - 1) + ["pair"] * PAIRS
                 + ["repeat"] * REPEATS_PER_CLIENT)
        draw.shuffle(kinds)
        kinds.insert(0, "new")
        sent: List[tuple] = []
        fresh_iter, pair_iter = iter(fresh), iter(pairs)
        slots = []
        for kind in kinds:
            if kind == "new":
                spec = next(fresh_iter)
            elif kind == "pair":
                spec = next(pair_iter)
            else:
                spec = targets.choice(sent)
            sent.append(spec)
            slots.append(ServeSlot(kind, spec))
        clients.append(slots)
    return clients
