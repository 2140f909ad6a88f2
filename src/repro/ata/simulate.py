"""The ATA pattern walk and the event sinks that consume it.

This module is the one executor of the paper's pattern semantics
(Section 5.2): a CPHASE opportunity is taken only if its logical pair
still needs one, a SWAP between two finished (or spare) occupants is
elided, the first action in a cycle reserves its qubits, and the walk
stops at the last needed gate.  It runs over each pattern's compiled
``(codes, us, vs)`` cycle arrays — the swap network as data — and
streams every emitted op into a *sink*:

* :class:`repro.ata.executor.CircuitSink` appends real ops, which is how
  :func:`~repro.ata.executor.execute_pattern` and
  :func:`~repro.compiler.prediction.ata_suffix` build circuits;
* :class:`FastTracker` scores noise-free candidates: depth and
  fusion-aware CX count (``Circuit.depth``, ``count_cx(unify=True)``),
  a whole cycle per numpy batch;
* :class:`ExactTracker` scores noisy candidates op by op, mirroring
  ``fusion_units`` and ``NoiseModel.esp`` down to their dict insertion
  and float accumulation orders (the selector compares esp exactly).

Each cycle is decided in one vectorised step against start-of-cycle
state.  That is exact: a mid-cycle state change comes only from an
emitted action, which reserves its qubits, so any later action that
could observe the change is blocked anyway.  Emitted ops of one cycle
are pairwise disjoint, which is what lets ``FastTracker`` take them as
one batch.  :func:`complete_residual` finishes pairs a pattern could
not cover (possible only for heavy-hex on irregular devices), for the
walk and for :func:`~repro.ata.executor.greedy_completion` alike.

Candidate metrics therefore come from the same walk that materialises
the selected candidate; ``tests/ata/test_simulate.py`` pins them against
the independent ``Circuit.depth`` / ``count_cx`` / ``esp`` references.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .._deadline import check_deadline
from ..arch.coupling import CouplingGraph
from ..arch.noise import NoiseModel
from ..ir.gates import CPHASE, CX, SWAP, Op, canonical_edges
from ..ir.mapping import Mapping
from .base import GATE, AtaPattern

#: Compact op-kind codes for event streams.
K_CPHASE = 0
K_SWAP = 1
K_CX = 2
K_OTHER = 3

_KIND_CODE = {CPHASE: K_CPHASE, SWAP: K_SWAP, CX: K_CX}

#: CX cost of a standalone (unfused) unit, by kind code.
_STANDALONE_CX = (2, 3, 1, 0)


def _code_of(kind: str) -> int:
    return _KIND_CODE.get(kind, K_OTHER)


class ExactTracker:
    """Op-by-op replica of depth / fused CX count / esp accumulation.

    Mirrors :func:`repro.ir.decompose.fusion_units` (pending pair,
    qubit->pair index, flush-on-conflict, first-held drain order) and
    :meth:`repro.arch.noise.NoiseModel.esp` (per-edge tallies in
    first-completion order) exactly, including dict insertion orders —
    esp is a float sum, so order changes would change the score.
    """

    def __init__(self, n_qubits: int,
                 noise: Optional[NoiseModel] = None) -> None:
        self.n_qubits = n_qubits
        self.noise = noise
        self.busy: List[int] = [0] * n_qubits
        self.depth = 0
        self.cx = 0
        self.pending: Dict[Tuple[int, int], int] = {}
        self.qubit_to_pair: Dict[int, Tuple[int, int]] = {}
        self.edge_cx: Dict[Tuple[int, int], int] = {}
        self.n_single = 0

    def copy(self) -> "ExactTracker":
        clone = ExactTracker.__new__(ExactTracker)
        clone.n_qubits = self.n_qubits
        clone.noise = self.noise
        clone.busy = list(self.busy)
        clone.depth = self.depth
        clone.cx = self.cx
        clone.pending = dict(self.pending)
        clone.qubit_to_pair = dict(self.qubit_to_pair)
        clone.edge_cx = dict(self.edge_cx)
        clone.n_single = self.n_single
        return clone

    # -- unit bookkeeping (mirrors count_cx + cx_per_edge) -------------------

    def _emit_standalone(self, pair: Tuple[int, int], code: int) -> None:
        self.cx += _STANDALONE_CX[code]
        if self.noise is not None and code != K_OTHER:
            self.edge_cx[pair] = (self.edge_cx.get(pair, 0)
                                  + _STANDALONE_CX[code])

    def _flush(self, pair: Tuple[int, int]) -> None:
        code = self.pending.pop(pair)
        for q in pair:
            self.qubit_to_pair.pop(q, None)
        self._emit_standalone(pair, code)

    def feed2(self, code: int, u: int, v: int) -> None:
        """A two-qubit op on physical qubits ``(u, v)``."""
        bu = self.busy[u]
        bv = self.busy[v]
        end = (bu if bu >= bv else bv) + 1
        self.busy[u] = end
        self.busy[v] = end
        if end > self.depth:
            self.depth = end

        pair = (u, v) if u < v else (v, u)
        if code == K_CPHASE or code == K_SWAP:
            held = self.pending.get(pair)
            if held is not None and held != code:
                del self.pending[pair]
                for q in pair:
                    self.qubit_to_pair.pop(q, None)
                self.cx += 3
                if self.noise is not None:
                    self.edge_cx[pair] = self.edge_cx.get(pair, 0) + 3
                return
            # Flush conflicts in the op's *given* qubit order — that is
            # the order ``fusion_units`` walks ``op.qubits``, and flush
            # order decides esp's accumulation order.
            for q in (u, v):
                other = self.qubit_to_pair.get(q)
                if other is not None:
                    self._flush(other)
            self.pending[pair] = code
            self.qubit_to_pair[u] = pair
            self.qubit_to_pair[v] = pair
        else:
            for q in (u, v):
                other = self.qubit_to_pair.get(q)
                if other is not None:
                    self._flush(other)
            self._emit_standalone(pair, code)

    def feed_batch(self, codes: np.ndarray, us: np.ndarray,
                   vs: np.ndarray) -> None:
        """One cycle's emitted ops, one by one in cycle-position order."""
        for code, u, v in zip(codes.tolist(), us.tolist(), vs.tolist()):
            self.feed2(code, u, v)

    def feed_op(self, op: Op) -> None:
        """An arbitrary prefix op (greedy prefixes hold CPHASE/SWAP only)."""
        qubits = op.qubits
        if len(qubits) == 2:
            self.feed2(_code_of(op.kind), qubits[0], qubits[1])
            return
        start = max(self.busy[q] for q in qubits)
        end = start + 1
        for q in qubits:
            self.busy[q] = end
            other = self.qubit_to_pair.get(q)
            if other is not None:
                self._flush(other)
        if end > self.depth:
            self.depth = end
        if len(qubits) == 1:
            self.n_single += 1

    # -- results -------------------------------------------------------------

    def finalize(self) -> Tuple[int, int, Optional[float]]:
        """(depth, cx_count, esp) — non-destructive, fork-safe."""
        cx = self.cx
        esp: Optional[float] = None
        if self.noise is None:
            for pair in self.pending:
                cx += _STANDALONE_CX[self.pending[pair]]
        else:
            edge_cx = dict(self.edge_cx)
            for pair in self.pending:
                code = self.pending[pair]
                cx += _STANDALONE_CX[code]
                edge_cx[pair] = edge_cx.get(pair, 0) + _STANDALONE_CX[code]
            log_esp = 0.0
            cx_error = self.noise.cx_error
            for edge, n_cx in edge_cx.items():
                log_esp += n_cx * math.log1p(-cx_error[edge])
            log_esp += self.n_single * math.log1p(-self.noise.sq_error)
            esp = math.exp(log_esp)
        return self.depth, cx, esp


class FastTracker:
    """Array-state tracker for the no-noise scoring path.

    Depth and fused CX count only (the esp term needs ordered float
    accumulation, which is what :class:`ExactTracker` is for).  Fusion
    state lives in ``held_partner`` / ``held_kind`` arrays so a whole
    disjoint cycle updates in a handful of numpy operations; both totals
    are order-insensitive sums, so batching is exact.
    """

    def __init__(self, n_qubits: int,
                 noise: Optional[NoiseModel] = None) -> None:
        assert noise is None, "FastTracker cannot produce the esp term"
        self.n_qubits = n_qubits
        self.busy = np.zeros(n_qubits, dtype=np.int64)
        self.depth = 0
        self.cx = 0
        self.held_partner = np.full(n_qubits, -1, dtype=np.int64)
        self.held_kind = np.zeros(n_qubits, dtype=np.int8)

    def copy(self) -> "FastTracker":
        clone = FastTracker.__new__(FastTracker)
        clone.n_qubits = self.n_qubits
        clone.busy = self.busy.copy()
        clone.depth = self.depth
        clone.cx = self.cx
        clone.held_partner = self.held_partner.copy()
        clone.held_kind = self.held_kind.copy()
        return clone

    def feed2(self, code: int, u: int, v: int) -> None:
        busy = self.busy
        bu = busy[u]
        bv = busy[v]
        end = (bu if bu >= bv else bv) + 1
        busy[u] = end
        busy[v] = end
        if end > self.depth:
            self.depth = end

        held = self.held_partner
        if code == K_CPHASE or code == K_SWAP:
            if held[u] == v and self.held_kind[u] != code:
                self.cx += 3
                held[u] = -1
                held[v] = -1
                return
            for q in (u, v):
                p = held[q]
                if p >= 0:
                    self.cx += _STANDALONE_CX[self.held_kind[q]]
                    held[q] = -1
                    held[p] = -1
            held[u] = v
            held[v] = u
            self.held_kind[u] = code
            self.held_kind[v] = code
        else:
            for q in (u, v):
                p = held[q]
                if p >= 0:
                    self.cx += _STANDALONE_CX[self.held_kind[q]]
                    held[q] = -1
                    held[p] = -1
            self.cx += _STANDALONE_CX[code]

    def feed_op(self, op: Op) -> None:
        qubits = op.qubits
        if len(qubits) == 2:
            self.feed2(_code_of(op.kind), qubits[0], qubits[1])
            return
        start = int(max(self.busy[q] for q in qubits))
        end = start + 1
        held = self.held_partner
        for q in qubits:
            self.busy[q] = end
            p = held[q]
            if p >= 0:
                self.cx += _STANDALONE_CX[self.held_kind[q]]
                held[q] = -1
                held[p] = -1
        if end > self.depth:
            self.depth = end

    def feed_batch(self, codes: np.ndarray, us: np.ndarray,
                   vs: np.ndarray) -> None:
        """One disjoint cycle's emitted two-qubit ops, all at once."""
        if not us.size:
            return
        busy = self.busy
        starts = np.maximum(busy[us], busy[vs]) + 1
        busy[us] = starts
        busy[vs] = starts
        top = int(starts.max())
        if top > self.depth:
            self.depth = top

        held = self.held_partner
        fuse = (held[us] == vs) & (self.held_kind[us] != codes)
        n_fused = int(np.count_nonzero(fuse))
        if n_fused:
            self.cx += 3 * n_fused
            held[us[fuse]] = -1
            held[vs[fuse]] = -1
        rest = ~fuse
        ru = us[rest]
        rv = vs[rest]
        # Flush every pending pair touching a non-fused op's qubits —
        # each such pair exactly once, even when both its endpoints are
        # touched by (different) ops of this cycle.
        qs = np.concatenate((ru, rv))
        ps = held[qs]
        hit = ps >= 0
        if hit.any():
            a = qs[hit]
            b = ps[hit]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            keys = np.unique(lo * np.int64(self.n_qubits) + hi)
            flo = keys // self.n_qubits
            fhi = keys % self.n_qubits
            self.cx += int(
                np.take(_STANDALONE_CX_ARR, self.held_kind[flo]).sum())
            held[flo] = -1
            held[fhi] = -1
        held[ru] = rv
        held[rv] = ru
        self.held_kind[ru] = codes[rest]
        self.held_kind[rv] = codes[rest]

    def finalize(self) -> Tuple[int, int, Optional[float]]:
        held = self.held_partner
        mine = np.nonzero(held > np.arange(self.n_qubits))[0]
        cx = self.cx + int(
            np.take(_STANDALONE_CX_ARR, self.held_kind[mine]).sum())
        return self.depth, cx, None


_STANDALONE_CX_ARR = np.array(_STANDALONE_CX, dtype=np.int64)


def make_tracker(n_qubits: int,
                 noise: Optional[NoiseModel] = None):
    """The cheapest tracker that can produce the selector's metrics."""
    if noise is None:
        return FastTracker(n_qubits)
    return ExactTracker(n_qubits, noise)


# -- compiled pattern cycles -------------------------------------------------


def _compile_cycle(cycle) -> Tuple:
    """One cycle's ``(codes, us, vs, disjoint)`` arrays.

    ``disjoint`` marks cycles whose actions touch pairwise-distinct
    qubits (every structural cycle except the heavy-hex interleaves);
    only the others need :func:`walk_region`'s first-come resolution.
    """
    n = len(cycle)
    codes = np.fromiter(
        (K_CPHASE if a == GATE else K_SWAP for a, _, _ in cycle),
        dtype=np.int8, count=n)
    us = np.fromiter((u for _, u, _ in cycle), dtype=np.int64, count=n)
    vs = np.fromiter((v for _, _, v in cycle), dtype=np.int64, count=n)
    seen: Set[int] = set()
    disjoint = True
    for _, u, v in cycle:
        if u in seen or v in seen:
            disjoint = False
            break
        seen.add(u)
        seen.add(v)
    return (codes, us, vs, disjoint)


def compiled_cycles(pattern: AtaPattern) -> List[Tuple]:
    """Per-cycle ``(codes, us, vs, disjoint)`` arrays, cached on the pattern.

    Memoised on the instance — combined with the restrict memo and the
    registry pattern cache, repeated candidate scoring against the same
    (sub-)pattern costs O(1) lookups.  Patterns exposing a
    ``_compiled_plan`` (a ``(distinct cycles, schedule)`` pair — the
    structured schedules repeat a handful of distinct cycles) compile
    each distinct cycle once and replay the arrays by reference;
    everything else falls back to walking ``cycles``.
    """
    compiled = getattr(pattern, "_compiled_cycles", None)
    if compiled is not None:
        return compiled
    plan = getattr(pattern, "_compiled_plan", None)
    if plan is not None:
        distinct, schedule = plan()
        built = [_compile_cycle(cycle) for cycle in distinct]
        compiled = [built[index] for index in schedule]
    else:
        compiled = [_compile_cycle(cycle) for cycle in pattern.cycles()]
    pattern._compiled_cycles = compiled  # type: ignore[attr-defined]
    return compiled


# -- the pattern walk --------------------------------------------------------


class WalkState:
    """Flat mapping plus the current region's pending pairs, as arrays.

    ``physical`` / ``swap_physical`` mirror :class:`Mapping`, so the
    residual completion runs unchanged on either.
    """

    def __init__(self, mapping: Mapping) -> None:
        n_log = mapping.n_logical
        self.p2l = np.full(mapping.n_physical, -1, dtype=np.int64)
        self.l2p = np.array(mapping.log_to_phys, dtype=np.int64)
        self.p2l[self.l2p] = np.arange(n_log, dtype=np.int64)
        self.needed = np.zeros((n_log, n_log), dtype=bool)
        self.degree = np.zeros(n_log, dtype=np.int64)

    def physical(self, logical: int) -> int:
        return int(self.l2p[logical])

    def swap_physical(self, u: int, v: int) -> None:
        lu = int(self.p2l[u])
        lv = int(self.p2l[v])
        self.p2l[u] = lv
        self.p2l[v] = lu
        if lu >= 0:
            self.l2p[lu] = v
        if lv >= 0:
            self.l2p[lv] = u

    def to_mapping(self) -> Mapping:
        mapping = Mapping.__new__(Mapping)
        mapping.log_to_phys = self.l2p.tolist()
        mapping.phys_to_log = [None if logical < 0 else logical
                               for logical in self.p2l.tolist()]
        return mapping


def walk_region(state: WalkState, pattern: AtaPattern,
                edges: Set[Tuple[int, int]], sink) -> List[Tuple[int, int]]:
    """Execute ``pattern`` until the canonical pairs ``edges`` are done.

    Emits every CPHASE whose logical pair is still needed and every
    structural SWAP that moves an unfinished qubit, one cycle at a time
    into ``sink.feed_batch`` (emitted ops in cycle-position order), and
    stops once no pair is left.  Returns the pairs the pattern could not
    cover, sorted — the order :func:`complete_residual` consumes them.
    """
    count = len(edges)
    if not count:
        return []
    p2l = state.p2l
    needed = state.needed
    degree = state.degree
    for a, b in edges:
        needed[a, b] = True
        needed[b, a] = True
        degree[a] += 1
        degree[b] += 1

    for codes, us, vs, disjoint in compiled_cycles(pattern):
        if not count:
            break
        check_deadline()
        lu = p2l[us]
        lv = p2l[vs]
        real = (lu >= 0) & (lv >= 0)
        gate_emit = real & (codes == K_CPHASE)
        if gate_emit.any():
            gate_emit[gate_emit] = needed[lu[gate_emit], lv[gate_emit]]
        swap_emit = codes == K_SWAP
        if swap_emit.any():
            au = (lu >= 0) & swap_emit
            av = (lv >= 0) & swap_emit
            active = np.zeros(len(codes), dtype=bool)
            active[au] = degree[lu[au]] > 0
            active[av] |= degree[lv[av]] > 0
            swap_emit &= active
        if not disjoint:
            # The flags above are exact against pre-cycle state; all
            # that is left of sequential execution is that the first
            # action in a cycle reserves its qubits.  Resolve it over the
            # surviving candidates only (a handful for the heavy-hex
            # interleaves).
            cand = np.nonzero(gate_emit | swap_emit)[0]
            if len(cand) > 1:
                taken: Set[int] = set()
                for pos, u, v in zip(cand.tolist(), us[cand].tolist(),
                                     vs[cand].tolist()):
                    if u in taken or v in taken:
                        gate_emit[pos] = False
                        swap_emit[pos] = False
                    else:
                        taken.add(u)
                        taken.add(v)
        emit = gate_emit | swap_emit
        if not emit.any():
            continue
        # Commit gates: clear needed pairs, drop degrees.
        if gate_emit.any():
            glu = lu[gate_emit]
            glv = lv[gate_emit]
            needed[glu, glv] = False
            needed[glv, glu] = False
            degree[glu] -= 1
            degree[glv] -= 1
            count -= int(np.count_nonzero(gate_emit))
        # Commit swaps: exchange occupants.
        if swap_emit.any():
            su = us[swap_emit]
            sv = vs[swap_emit]
            slu = p2l[su].copy()
            slv = p2l[sv].copy()
            p2l[su] = slv
            p2l[sv] = slu
            moved = slu >= 0
            state.l2p[slu[moved]] = sv[moved]
            moved = slv >= 0
            state.l2p[slv[moved]] = su[moved]
        sink.feed_batch(codes[emit], us[emit], vs[emit])
    if not count:
        return []
    residual = sorted(e for e in edges if needed[e[0], e[1]])
    for a, b in residual:  # handed to the completion, not to the next region
        needed[a, b] = False
        needed[b, a] = False
        degree[a] -= 1
        degree[b] -= 1
    return residual


def complete_residual(coupling: CouplingGraph, mapping,
                      residual: Iterable[Tuple[int, int]], sink) -> None:
    """Route each residual pair with plain shortest-path SWAPs.

    ``mapping`` is a :class:`Mapping` or a :class:`WalkState`; it is
    updated in place.  Meant for the rare leftovers of the heavy-hex
    two-pass schedule and the greedy engines' safety nets: correctness
    matters here, not optimality.
    """
    for lu, lv in sorted(residual):
        path = coupling.shortest_path(mapping.physical(lu),
                                      mapping.physical(lv))
        # Walk lv's occupant down the path until adjacent to lu.
        for k in range(len(path) - 1, 1, -1):
            sink.feed2(K_SWAP, path[k], path[k - 1])
            mapping.swap_physical(path[k], path[k - 1])
        sink.feed2(K_CPHASE, path[0], path[1])


def run_suffix(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    state: WalkState,
    remaining: Iterable[Tuple[int, int]],
    sink,
    use_range_detection: bool = True,
) -> None:
    """Finish ``remaining`` from ``state``: the ATA suffix of Section 6.3.

    Range detection, one :func:`walk_region` per region, then residual
    completion — every event streamed into ``sink``.
    """
    from ..compiler.prediction import detect_ranges

    remaining = set(canonical_edges(remaining))
    if not remaining:
        return
    if use_range_detection:
        plan = detect_ranges(pattern, state.to_mapping(), remaining)
    else:
        plan = [(pattern, remaining)]
    for region_pattern, edges in plan:
        residual = walk_region(state, region_pattern, edges, sink)
        complete_residual(coupling, state, residual, sink)


def candidate_metrics(
    coupling: CouplingGraph,
    pattern: AtaPattern,
    mapping: Mapping,
    remaining: Iterable[Tuple[int, int]],
    noise: Optional[NoiseModel] = None,
    use_range_detection: bool = True,
    prefix_tracker=None,
) -> Tuple[int, int, Optional[float]]:
    """(depth, cx_count, esp) of prefix + ATA suffix, without a circuit.

    ``prefix_tracker`` carries the already-streamed greedy prefix (fork
    it per candidate); omitted, the suffix is scored from scratch — the
    pure-ATA candidate ``cc0``.
    """
    tracker = (prefix_tracker if prefix_tracker is not None
               else make_tracker(coupling.n_qubits, noise))
    run_suffix(coupling, pattern, WalkState(mapping), remaining, tracker,
               use_range_detection=use_range_detection)
    return tracker.finalize()
