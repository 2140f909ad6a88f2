"""Rule registry and visitor base for the static checkers.

The checkers mirror the :mod:`repro.lint` architecture one level up:
where lint rules scan compiled *circuits*, checker rules scan the
*source tree* that produces them.  Each rule is a
:class:`RuleVisitor` subclass registered under a ``CK0xx`` code; the
engine (:mod:`repro.checkers.engine`) parses every module once and
dispatches each AST node to every active rule in a single walk, so a
full-catalogue run stays one parse + one traversal per file.

Rules emit :class:`repro.lint.diagnostics.Diagnostic` records with
``path``/``line``/``symbol`` set, so the existing text/JSON reporters,
exit-code conventions and batch plumbing all apply unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..lint.diagnostics import SEVERITIES, Diagnostic


@dataclass(frozen=True)
class ModuleContext:
    """One parsed module, as every rule visitor sees it."""

    #: Path as given by the caller (used verbatim in diagnostics).
    path: str
    source: str
    tree: ast.Module
    lines: Tuple[str, ...]

    def text(self, line: int) -> str:
        """The 1-indexed source line (empty string when out of range)."""
        return self.lines[line - 1] if 0 < line <= len(self.lines) else ""

    def posix_path(self) -> str:
        return self.path.replace("\\", "/")


class RuleVisitor:
    """Per-module visitor for one rule.

    Subclasses implement ``enter_<NodeType>`` / ``leave_<NodeType>``
    hooks, which the engine's single walk calls for every active rule
    at once (``enter`` before the node's children, ``leave`` after).
    Rules that must see the whole module before judging (two-phase
    analyses like CK010) collect during the walk and emit from
    :meth:`finish`.
    """

    def __init__(self, rule: "CheckerRule", module: ModuleContext) -> None:
        self.rule = rule
        self.module = module
        self.diagnostics: List[Diagnostic] = []

    def report(self, line: int, message: str,
               symbol: Optional[str] = None,
               hint: Optional[str] = None) -> None:
        """Emit one finding pinned to ``line`` of the current module."""
        self.diagnostics.append(Diagnostic(
            code=self.rule.code, severity=self.rule.severity,
            rule=self.rule.name, message=message, hint=hint,
            path=self.module.path, line=line, symbol=symbol))

    def finish(self) -> None:
        """Called once after the walk (post-pass for two-phase rules)."""


@dataclass(frozen=True)
class CheckerRule:
    """One registered static-analysis rule."""

    code: str
    name: str
    severity: str
    description: str
    #: The documented escape hatch (inline vetting comment, baseline
    #: entry, designated-module list...) — surfaced in ``--list-rules``
    #: and ``docs/checks.md``.
    escape: str
    visitor: Type[RuleVisitor] = field(repr=False)
    #: Path fragments this rule is restricted to; empty means every
    #: scanned file.  The engine's ``restrict=False`` mode (fixture
    #: tests, ``--no-restrict``) bypasses the restriction.
    hot_paths: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.hot_paths:
            return True
        norm = path.replace("\\", "/")
        return any(fragment in norm for fragment in self.hot_paths)


_CHECKERS: Dict[str, CheckerRule] = {}


def register_checker(rule: CheckerRule) -> CheckerRule:
    """Register (or deliberately replace) a rule under its code."""
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"checker {rule.code} has unknown severity "
            f"{rule.severity!r}; expected one of {SEVERITIES}")
    _CHECKERS[rule.code] = rule
    return rule


def checker(code: str, name: str, severity: str, description: str,
            escape: str, hot_paths: Tuple[str, ...] = (),
            ) -> Callable[[Type[RuleVisitor]], Type[RuleVisitor]]:
    """Class decorator: register a :class:`RuleVisitor` subclass.

    After decoration the rule participates in
    :func:`~repro.checkers.engine.check_source`, the ``repro check``
    CLI and the CI gate with no further wiring; ``cls.rule`` is bound
    to the registered rule object.
    """
    def wrap(cls: Type[RuleVisitor]) -> Type[RuleVisitor]:
        rule_obj = CheckerRule(code=code, name=name, severity=severity,
                               description=description, escape=escape,
                               visitor=cls, hot_paths=hot_paths)
        register_checker(rule_obj)
        cls.rule_spec = rule_obj  # type: ignore[attr-defined]
        return cls
    return wrap


def get_checker(code: str) -> CheckerRule:
    try:
        return _CHECKERS[code]
    except KeyError:
        raise ValueError(
            f"unknown checker rule {code!r}; registered rules: "
            f"{', '.join(sorted(_CHECKERS))}") from None


def all_checkers() -> Tuple[CheckerRule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_CHECKERS[code] for code in sorted(_CHECKERS))


def checker_table() -> Dict[str, Tuple[str, str, str, str]]:
    """``{code: (name, severity, description, escape)}`` for docs/help."""
    return {r.code: (r.name, r.severity, r.description, r.escape)
            for r in all_checkers()}


def resolve_checkers(select: Optional[Tuple[str, ...]] = None,
                     ignore: Optional[Tuple[str, ...]] = None,
                     ) -> Tuple[CheckerRule, ...]:
    """The rule set to run, honouring ``select``/``ignore`` code lists."""
    for code in tuple(select or ()) + tuple(ignore or ()):
        get_checker(code)  # raise early on unknown codes
    chosen = all_checkers()
    if select:
        chosen = tuple(r for r in chosen if r.code in select)
    if ignore:
        chosen = tuple(r for r in chosen if r.code not in ignore)
    return chosen
