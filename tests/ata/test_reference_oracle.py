"""Production pattern execution against the reference dict/set walk.

``reference_executor`` keeps the plain sequential executor as an oracle
that shares no execution code with the compiled-cycle walk.  These tests
compare whole circuits — op kinds, qubits, angles, tags and order — plus
the final mapping and residual, not just the depth/CX metrics the
simulation tests look at.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import grid, heavyhex_for, line, sycamore_for
from repro.arch.noise import NoiseModel
from repro.ata import compile_with_pattern, execute_pattern, get_pattern
from repro.ata.base import GATE, SWAP
from repro.ata.simulate import ExactTracker, candidate_metrics
from repro.compiler.greedy import greedy_compile
from repro.compiler.prediction import ata_suffix
from repro.ir.circuit import Circuit
from repro.ir.mapping import Mapping
from repro.problems import random_problem_graph, regular_problem_graph

from . import reference_executor as reference
from .test_executor_semantics import ScriptedPattern


def op_list(circuit):
    ops = [(op.kind, op.qubits, op.param, op.tag) for op in circuit.ops]
    for _, qubits, _, tag in ops:
        # Python ints, not numpy scalars: ops must serialise unchanged.
        assert all(type(q) is int for q in qubits + (tag or ()))
    return ops


def assert_same_execution(produced, expected):
    circuit, mapping, residual = produced
    ref_circuit, ref_mapping, ref_residual = expected
    assert op_list(circuit) == op_list(ref_circuit)
    assert mapping == ref_mapping
    assert residual == ref_residual


@st.composite
def scripted_cases(draw):
    """A random script (shared-qubit cycles allowed), placement, edges."""
    n_phys = draw(st.integers(2, 7))
    n_log = draw(st.integers(2, n_phys))
    homes = draw(st.permutations(list(range(n_phys))))[:n_log]
    pair = st.tuples(st.integers(0, n_phys - 1),
                     st.integers(0, n_phys - 1)).filter(
                         lambda t: t[0] != t[1])
    action = st.tuples(st.sampled_from([GATE, SWAP]), pair).map(
        lambda t: (t[0],) + t[1])
    script = draw(st.lists(st.lists(action, max_size=2 * n_phys),
                           max_size=12))
    all_pairs = [(a, b) for a in range(n_log) for b in range(a + 1, n_log)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True))
    return (ScriptedPattern(script, range(n_phys)),
            Mapping(homes, n_phys), edges)


@settings(max_examples=200, deadline=None)
@given(scripted_cases(), st.floats(-3.0, 3.0))
def test_scripted_patterns_match_reference(case, gamma):
    pattern, mapping, edges = case
    assert_same_execution(
        execute_pattern(pattern, mapping, edges, gamma=gamma),
        reference.execute_pattern(pattern, mapping, edges, gamma=gamma))


@settings(max_examples=100, deadline=None)
@given(scripted_cases())
def test_scripted_completion_matches_reference(case):
    pattern, mapping, edges = case
    coupling = line(mapping.n_physical)
    circuit, final = compile_with_pattern(coupling, pattern, edges,
                                          mapping, gamma=0.5)
    ref_circuit, ref_final, residual = reference.execute_pattern(
        pattern, mapping, edges, gamma=0.5, n_physical=coupling.n_qubits)
    reference.greedy_completion(coupling, ref_circuit, ref_final, residual,
                                0.5)
    assert op_list(circuit) == op_list(ref_circuit)
    assert final == ref_final


SUBSET_DEVICES = [
    pytest.param(lambda: line(8), id="line8"),
    pytest.param(lambda: grid(3, 3), id="grid3x3"),
    pytest.param(lambda: heavyhex_for(12), id="heavyhex"),
    pytest.param(lambda: sycamore_for(8), id="sycamore"),
]


@pytest.mark.parametrize("make_coupling", SUBSET_DEVICES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_edge_subsets_match_reference(make_coupling, data):
    """Structured patterns, spare qubits, any placement, any edge subset."""
    coupling = make_coupling()
    n_phys = coupling.n_qubits
    n_log = data.draw(st.integers(2, min(n_phys, 10)))
    homes = data.draw(st.permutations(list(range(n_phys))))[:n_log]
    mapping = Mapping(homes, n_phys)
    all_pairs = [(a, b) for a in range(n_log) for b in range(a + 1, n_log)]
    edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    pattern = get_pattern(coupling)
    assert_same_execution(
        execute_pattern(pattern, mapping, edges, gamma=0.2),
        reference.execute_pattern(pattern, mapping, edges, gamma=0.2))
    for urd in (True, False):
        circuit, final = ata_suffix(coupling, pattern, mapping, edges,
                                    gamma=0.2, use_range_detection=urd)
        ref_circuit, ref_final = reference.ata_suffix(
            coupling, pattern, mapping, edges, gamma=0.2,
            use_range_detection=urd)
        assert op_list(circuit) == op_list(ref_circuit)
        assert final == ref_final


SNAPSHOT_DEVICES = [
    pytest.param(lambda: line(12), 12, id="line12"),
    pytest.param(lambda: grid(4, 5), 20, id="grid4x5"),
    pytest.param(lambda: heavyhex_for(20), 18, id="heavyhex"),
    pytest.param(lambda: sycamore_for(16), 16, id="sycamore"),
]


@pytest.mark.parametrize("make_coupling, n_logical", SNAPSHOT_DEVICES)
@pytest.mark.parametrize("use_range_detection", [True, False],
                         ids=["ranges", "whole"])
def test_ata_suffix_from_greedy_snapshots(make_coupling, n_logical,
                                          use_range_detection):
    coupling = make_coupling()
    n_logical = min(n_logical, coupling.n_qubits)
    problem = regular_problem_graph(n_logical, 3, seed=9)
    mapping = Mapping.trivial(n_logical, coupling.n_qubits)
    pattern = get_pattern(coupling)
    trace = greedy_compile(coupling, problem, mapping, gamma=0.4,
                           max_cycles=6)
    checked = 0
    for snapshot in trace.snapshots:
        prefix = list(trace.circuit.ops[:snapshot.op_count])
        circuit, final = ata_suffix(
            coupling, pattern, snapshot.mapping, snapshot.remaining,
            gamma=0.4, use_range_detection=use_range_detection,
            circuit=Circuit(coupling.n_qubits, prefix))
        ref_circuit, ref_final = reference.ata_suffix(
            coupling, pattern, snapshot.mapping, snapshot.remaining,
            gamma=0.4, use_range_detection=use_range_detection,
            circuit=Circuit(coupling.n_qubits, prefix))
        assert op_list(circuit) == op_list(ref_circuit)
        assert final == ref_final
        checked += 1
    assert checked > 1


def test_dense_problem_on_heavyhex_matches_reference():
    """A dense problem runs deep into the shared-anchor interleave cycles."""
    coupling = heavyhex_for(20)
    problem = random_problem_graph(20, 0.5, seed=1)
    mapping = Mapping.trivial(20, coupling.n_qubits)
    pattern = get_pattern(coupling)
    circuit, final = ata_suffix(coupling, pattern, mapping, problem.edges)
    ref_circuit, ref_final = reference.ata_suffix(coupling, pattern,
                                                  mapping, problem.edges)
    assert op_list(circuit) == op_list(ref_circuit)
    assert final == ref_final


def test_exact_tracker_batches_match_per_op_feed():
    """The walk feeds ExactTracker by cycle batches; the result must equal
    feeding the materialised circuit one op at a time."""
    coupling = heavyhex_for(20)
    problem = regular_problem_graph(18, 3, seed=5)
    mapping = Mapping.trivial(18, coupling.n_qubits)
    noise = NoiseModel(coupling, seed=3)
    pattern = get_pattern(coupling)
    circuit, _ = ata_suffix(coupling, pattern, mapping, problem.edges)

    per_op = ExactTracker(coupling.n_qubits, noise)
    for op in circuit.ops:
        per_op.feed_op(op)
    assert candidate_metrics(coupling, pattern, mapping, problem.edges,
                             noise=noise) == per_op.finalize()
