"""R002 — registry completeness: every matcher backend everywhere.

``MATCHER_BACKENDS`` in :mod:`repro.core.config` is the single source of
truth for the longest-match backends whose byte-identical equivalence
is the paper's §IV claim.  A backend that exists but is missing from the
factory, the equivalence test, or the performance docs is a silent hole in
that claim — the linter cross-references all four artifacts **by
AST/structure**, not by grepping for the word:

* ``src/repro/core/config.py`` — the ``MATCHER_BACKENDS`` tuple literal;
* ``src/repro/core/matcher.py`` — ``make_candidate_set``'s dispatch chain
  (every key must be handled, and the handled key set must not drift ahead
  of the registry either); the chain also yields the key -> backend-class
  mapping used for the test check;
* ``tests/test_matcher_equivalence.py`` — must reference each backend's
  class name (the test is class-parameterized, not string-parameterized);
* ``docs/performance.md`` — must mention each key in backticks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, Project, Rule, string_constant

CONFIG_PATH = "src/repro/core/config.py"
MATCHER_PATH = "src/repro/core/matcher.py"
TEST_PATH = "tests/test_matcher_equivalence.py"
DOCS_PATH = "docs/performance.md"

REGISTRY_NAME = "MATCHER_BACKENDS"
FACTORY_NAME = "make_candidate_set"


class RegistrySyncRule(Rule):
    id = "R002"
    title = "matcher backend registry must be complete everywhere"

    def check(self, project: Project) -> Iterator[Finding]:
        registry = self._registry(project)
        if registry is None:
            # No registry tuple — nothing to cross-reference (fixture
            # projects without a config module are simply out of scope).
            return
        keys, registry_line = registry
        yield from self._check_factory(project, keys, registry_line)
        yield from self._check_test(project, keys)
        yield from self._check_docs(project, keys)

    # -- source of truth -------------------------------------------------------

    def _registry(self, project: Project) -> Optional[Tuple[List[str], int]]:
        module = project.module(CONFIG_PATH)
        if module is None:
            return None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == REGISTRY_NAME for t in node.targets
            ):
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)):
                keys: List[str] = []
                for element in node.value.elts:
                    key = string_constant(element)
                    if key is not None:
                        keys.append(key)
                return keys, node.lineno
        return None

    # -- factory dispatch ------------------------------------------------------

    def _factory_dispatch(self, project: Project) -> Dict[str, str]:
        """Backend key -> returned class name, from the factory's if-chain."""
        module = project.module(MATCHER_PATH)
        if module is None:
            return {}
        mapping: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.FunctionDef) and node.name == FACTORY_NAME):
                continue
            for branch in ast.walk(node):
                if not isinstance(branch, ast.If):
                    continue
                key = self._compared_key(branch.test)
                if key is None:
                    continue
                mapping[key] = self._returned_class(branch.body) or ""
        return mapping

    @staticmethod
    def _compared_key(test: ast.AST) -> Optional[str]:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        if not isinstance(test.ops[0], ast.Eq):
            return None
        left = string_constant(test.left)
        right = string_constant(test.comparators[0])
        return left if left is not None else right

    @staticmethod
    def _returned_class(body: List[ast.stmt]) -> Optional[str]:
        for stmt in body:
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Call):
                func = stmt.value.func
                if isinstance(func, ast.Name):
                    return func.id
                if isinstance(func, ast.Attribute):
                    return func.attr
        return None

    def _check_factory(
        self, project: Project, keys: List[str], registry_line: int
    ) -> Iterator[Finding]:
        if project.module(MATCHER_PATH) is None:
            return
        dispatch = self._factory_dispatch(project)
        for key in keys:
            if key not in dispatch:
                yield self.finding(
                    MATCHER_PATH,
                    1,
                    f"backend {key!r} from {REGISTRY_NAME} is not handled "
                    f"by {FACTORY_NAME}()",
                    hint=f"add an `if backend == \"{key}\":` branch returning "
                    "the backend's CandidateSet class",
                )
        for key in sorted(set(dispatch) - set(keys)):
            yield self.finding(
                CONFIG_PATH,
                registry_line,
                f"{FACTORY_NAME}() handles backend {key!r} that is missing "
                f"from {REGISTRY_NAME}",
                hint=f"add \"{key}\" to the {REGISTRY_NAME} tuple",
            )

    # -- equivalence test ------------------------------------------------------

    def _check_test(self, project: Project, keys: List[str]) -> Iterator[Finding]:
        module = project.module(TEST_PATH)
        if module is None:
            yield self.finding(
                TEST_PATH,
                1,
                "matcher equivalence test module is missing",
                hint="tests/test_matcher_equivalence.py must diff all "
                "backends' outputs byte-for-byte",
            )
            return
        dispatch = self._factory_dispatch(project)
        referenced: Set[str] = {
            node.id for node in ast.walk(module.tree) if isinstance(node, ast.Name)
        }
        referenced |= {
            node.attr for node in ast.walk(module.tree) if isinstance(node, ast.Attribute)
        }
        literals: Set[str] = {
            value
            for value in (
                string_constant(node)
                for node in ast.walk(module.tree)
                if isinstance(node, ast.Constant)
            )
            if value is not None
        }
        for key in keys:
            cls = dispatch.get(key, "")
            if key in literals or (cls and cls in referenced):
                continue
            yield self.finding(
                TEST_PATH,
                1,
                f"equivalence test never exercises backend {key!r}",
                hint=f"reference {cls or key!r} in "
                "tests/test_matcher_equivalence.py so its output is diffed "
                "against the others",
            )

    # -- docs ------------------------------------------------------------------

    def _check_docs(self, project: Project, keys: List[str]) -> Iterator[Finding]:
        text = project.read_text(DOCS_PATH)
        if text is None:
            yield self.finding(
                DOCS_PATH,
                1,
                "docs/performance.md is missing",
                hint="document every matcher backend's cost model there",
            )
            return
        for key in keys:
            if f"`{key}`" not in text:
                yield self.finding(
                    DOCS_PATH,
                    1,
                    f"docs/performance.md does not document backend {key!r}",
                    hint=f"mention `{key}` (in backticks) with its probe-cost "
                    "characteristics",
                )
