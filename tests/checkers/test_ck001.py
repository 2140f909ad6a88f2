"""CK001 (no unordered iteration): the flagged and clean source shapes.

These cases pin the rule's taint tracking one construct at a time; the
fixture in ``fixtures/ck001.py`` pins the diagnostic shape.
"""

import pathlib
import textwrap

import pytest

from repro.checkers import check_source, resolve_checkers
from repro.checkers.determinism import HOT_PATHS
from repro.cli import main

SOURCE_TREE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def findings(source):
    return check_source(textwrap.dedent(source), "mod.py",
                        resolve_checkers(select=("CK001",)),
                        restrict=False)


class TestFlagged:
    def test_for_over_set_call(self):
        assert findings("""
            for x in set(items):
                use(x)
        """)

    def test_for_over_set_literal_and_comprehension(self):
        assert findings("for x in {1, 2}:\n    use(x)\n")
        assert findings("for x in {q for q in items}:\n    use(x)\n")

    def test_comprehension_over_set(self):
        assert findings("out = [f(x) for x in frozenset(items)]\n")

    def test_name_assigned_a_set(self):
        assert findings("""
            pending = set(edges)
            for e in pending:
                use(e)
        """)

    def test_set_algebra_result(self):
        assert findings("""
            remaining = set(a) - set(b)
            for e in remaining:
                use(e)
        """)

    def test_dict_keys_call(self):
        assert findings("for k in d.keys():\n    use(k)\n")


class TestClean:
    def test_sorted_wrapping(self):
        assert not findings("for x in sorted(set(items)):\n    use(x)\n")

    def test_plain_dict_iteration(self):
        assert not findings("for k in d:\n    use(k)\n")

    def test_list_iteration(self):
        assert not findings("""
            items = list(things)
            for x in items:
                use(x)
        """)

    def test_reassignment_clears_set_taint(self):
        assert not findings("""
            pending = set(edges)
            pending = sorted(pending)
            for e in pending:
                use(e)
        """)

    def test_set_comprehension_target_not_flagged(self):
        # Building a set from a set never observes iteration order.
        assert not findings("out = {f(x) for x in set(items)}\n")

    def test_function_scope_does_not_leak(self):
        assert not findings("""
            def inner():
                pending = set(edges)

            def outer():
                pending = list(edges)
                for e in pending:
                    use(e)
        """)

    def test_suppression_comment(self):
        assert not findings("""
            for x in set(items):  # det: ok
                use(x)
        """)


@pytest.mark.parametrize("snippet", [
    "x = sorted(set(items))\n",
    "n = len(set(items))\n",
    "total = sum(set(values))\n",
])
def test_order_insensitive_consumers_not_flagged(snippet):
    assert not findings(snippet)


class TestMain:
    """CK001 through ``python -m repro check --select CK001``."""

    def test_repo_hot_paths_are_clean(self, capsys):
        # The CI gate: the compiler hot paths must stay finding-free,
        # with no baseline entry to hide behind.
        assert main(["check", str(SOURCE_TREE), "--select", "CK001",
                     "--no-baseline"]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_exit_1_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("for x in set(items):\n    use(x)\n")
        assert main(["check", str(bad), "--select", "CK001",
                     "--no-baseline", "--no-restrict"]) == 1
        out = capsys.readouterr().out
        assert "CK001" in out
        assert "bad.py:1" in out

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "no" / "such" / "dir"),
                     "--select", "CK001"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_reported_as_finding(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main(["check", str(bad), "--select", "CK001",
                     "--no-baseline", "--no-restrict"]) == 1
        assert "CK000" in capsys.readouterr().out


def test_solver_is_a_hot_path():
    # The optimal solver's output is part of the determinism contract.
    assert "repro/solver" in HOT_PATHS
