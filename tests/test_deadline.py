"""Cooperative deadlines: the scope itself and every loop that polls it.

Each check-site test opens an already-expired ``deadline(0)`` and calls
the function directly: it must raise ``JobTimeoutError`` from its own
loop, i.e. the innermost frame below ``check_deadline`` lives in the
module that owns that loop.
"""

import threading
from pathlib import Path

import pytest

import repro.baselines as baselines
from repro._deadline import check_deadline, deadline
from repro.arch import grid, line
from repro.ata import get_pattern, simulate
from repro.ata.simulate import candidate_metrics
from repro.baselines import olsq, qaim, routing, sabre, satmap
from repro.compiler import greedy, mapping
from repro.compiler.greedy import greedy_compile
from repro.compiler.mapping import degree_placement, quadratic_placement
from repro.exceptions import JobTimeoutError
from repro.pipeline import base
from repro.pipeline.registry import available_methods, get_method
from repro.problems import random_problem_graph
from repro.solver import astar
from repro.solver.astar import solve_depth_optimal


def raising_module(excinfo):
    """Source file of the innermost frame outside ``repro._deadline``."""
    frames = [entry for entry in excinfo.traceback
              if Path(entry.path).name != "_deadline.py"]
    return Path(frames[-1].path)


def source(module):
    return Path(module.__file__)


@pytest.fixture
def instance():
    coupling = grid(3, 3)
    problem = random_problem_graph(8, 0.5, seed=1)
    return coupling, problem


class TestScope:
    def test_no_scope_never_raises(self):
        check_deadline()

    def test_none_opens_no_budget(self):
        with deadline(None):
            check_deadline()

    def test_expired_scope_raises_with_its_budget(self):
        with deadline(0):
            with pytest.raises(JobTimeoutError, match="timeout of 0s"):
                check_deadline()

    def test_scope_restores_on_exit(self):
        with deadline(0):
            pass
        check_deadline()

    def test_nested_scope_restores_the_outer_budget(self):
        with deadline(0):
            with deadline(60.0):
                check_deadline()
            with pytest.raises(JobTimeoutError):
                check_deadline()

    def test_scope_is_thread_local(self):
        outcome = []

        def other_thread():
            try:
                check_deadline()
                outcome.append("ok")
            except JobTimeoutError:
                outcome.append("raised")

        with deadline(0):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert outcome == ["ok"]


class TestCheckSites:
    def test_pipeline_checks_before_each_pass(self, instance):
        coupling, problem = instance
        with deadline(0), pytest.raises(JobTimeoutError) as excinfo:
            get_method("greedy").compile(coupling, problem)
        assert raising_module(excinfo) == source(base)

    def test_greedy_cycle_loop(self, instance):
        coupling, problem = instance
        placement = degree_placement(coupling, problem)
        with deadline(0), pytest.raises(JobTimeoutError) as excinfo:
            greedy_compile(coupling, problem, placement)
        assert raising_module(excinfo) == source(greedy)

    def test_placement_hill_climb(self, instance):
        coupling, problem = instance
        with deadline(0), pytest.raises(JobTimeoutError) as excinfo:
            quadratic_placement(coupling, problem)
        assert raising_module(excinfo) == source(mapping)

    def test_ata_walk_cycle_loop(self, instance):
        coupling, problem = instance
        placement = degree_placement(coupling, problem)
        pattern = get_pattern(coupling)
        with deadline(0), pytest.raises(JobTimeoutError) as excinfo:
            candidate_metrics(coupling, pattern, placement, problem.edges)
        assert raising_module(excinfo) == source(simulate)

    @pytest.mark.parametrize("strategy", ["astar", "idastar"])
    def test_solver_expansion(self, strategy):
        coupling = line(4)
        edges = [(0, 3), (1, 2), (0, 2)]
        with deadline(0), pytest.raises(JobTimeoutError) as excinfo:
            solve_depth_optimal(coupling, edges, strategy=strategy)
        assert raising_module(excinfo) == source(astar)


#: Registered baseline -> (compiler function, module whose loop checks
#: first).  2QAN has no loop of its own: its placement search polls.
#: Paulihedral's layer partition is the shared routing helper.
BASELINE_SITES = {
    "sabre": ("compile_sabre", sabre),
    "qaim": ("compile_qaim", qaim),
    "2qan": ("compile_twoqan", mapping),
    "paulihedral": ("compile_paulihedral", routing),
    "olsq": ("compile_olsq", olsq),
    "satmap": ("compile_satmap", satmap),
}


class TestBaselineCheckSites:
    def test_every_registered_baseline_is_covered(self):
        registered = {name for name in available_methods()
                      if get_method(name).kind == "baseline"}
        assert registered == set(BASELINE_SITES)

    @pytest.mark.parametrize("name", sorted(BASELINE_SITES))
    def test_baseline_main_loop(self, name, instance, monkeypatch):
        coupling, problem = instance
        function_name, module = BASELINE_SITES[name]
        if name == "satmap":
            # Isolate the restart loop from the placement search that
            # runs (and polls) before it.
            monkeypatch.setattr(
                satmap, "quadratic_initial_mapping",
                lambda coupling, problem, seed: degree_placement(coupling,
                                                                 problem))
        compiler = getattr(baselines, function_name)
        with deadline(0), pytest.raises(JobTimeoutError) as excinfo:
            compiler(coupling, problem)
        assert raising_module(excinfo) == source(module)
