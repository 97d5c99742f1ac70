"""Waypoint and wildcard path patterns over compressed archives.

Case 2 generalized: operators rarely know the full route, they know
*landmarks* — "client C reached database D **via** firewall F", "anything
that went straight from the gateway to an app server, skipping the web
tier".  :class:`PathPattern` expresses that as a sequence of elements:

* a vertex id — matches exactly that vertex;
* :data:`ANY` — matches exactly one arbitrary vertex;
* :data:`GAP` — matches any number (including zero) of arbitrary vertices.

Patterns are anchored at both ends; wrap with :data:`GAP` for "contains"
semantics (:meth:`PathPattern.containing` does it for you).  Matching is
the classic glob algorithm — linear two-pointer with backtracking over the
last :data:`GAP` — so checking a candidate costs ``O(|P| · gaps)`` worst
case and ``O(|P|)`` typically.

Every store runs a pattern with
:meth:`~repro.core.reader.PathReader.pattern_search`: the vertex index
prunes to the paths containing *all* literal vertices, those candidates
are decoded once, and :meth:`PathPattern.matches` keeps the hits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union


class _Any:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ANY"


class _Gap:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "GAP"


#: Matches exactly one arbitrary vertex.
ANY = _Any()
#: Matches any number (including zero) of arbitrary vertices.
GAP = _Gap()

Element = Union[int, _Any, _Gap]


def match_pattern(path: Sequence[int], pattern: Sequence[Element]) -> bool:
    """``True`` when *path* matches *pattern* (anchored both ends).

    Glob matching with backtracking to the most recent :data:`GAP`;
    consecutive gaps collapse.
    """
    p = 0  # position in path
    q = 0  # position in pattern
    star_q: Optional[int] = None  # pattern index just past the last GAP
    star_p = 0  # path position the last GAP is currently consuming up to
    n, m = len(path), len(pattern)
    while p < n:
        if q < m and isinstance(pattern[q], _Gap):
            star_q = q + 1
            star_p = p
            q += 1
        elif q < m and (isinstance(pattern[q], _Any) or pattern[q] == path[p]):
            p += 1
            q += 1
        elif star_q is not None:
            # Let the last GAP swallow one more vertex and retry.
            star_p += 1
            p = star_p
            q = star_q
        else:
            return False
    while q < m and isinstance(pattern[q], _Gap):
        q += 1
    return q == m


class PathPattern:
    """A compiled path pattern.

    :param elements: vertices, :data:`ANY` and :data:`GAP` markers.

    >>> PathPattern([1, GAP, 5]).matches((1, 2, 3, 5))
    True
    >>> PathPattern([1, ANY, 5]).matches((1, 2, 3, 5))
    False
    """

    def __init__(self, elements: Sequence[Element]) -> None:
        compiled: List[Element] = []
        for element in elements:
            if isinstance(element, (_Any, _Gap)):
                # Collapse consecutive gaps; GAP+ANY order is normalized to
                # ANY-first so the gap stays maximal-right.
                if isinstance(element, _Gap) and compiled and isinstance(compiled[-1], _Gap):
                    continue
                compiled.append(element)
            elif isinstance(element, int) and not isinstance(element, bool) and element >= 0:
                compiled.append(element)
            else:
                raise ValueError(f"pattern elements are vertex ids, ANY or GAP; got {element!r}")
        if not compiled:
            raise ValueError("empty pattern")
        self.elements: Tuple[Element, ...] = tuple(compiled)

    @classmethod
    def containing(cls, subsequence: Sequence[Element]) -> "PathPattern":
        """Unanchored form: ``GAP + subsequence + GAP``."""
        return cls([GAP, *subsequence, GAP])

    @classmethod
    def via(cls, source: int, waypoints: Sequence[int], destination: int) -> "PathPattern":
        """Case 2 with landmarks: source, then each waypoint in order (any
        distance apart), then destination."""
        elements: List[Element] = [source]
        for waypoint in waypoints:
            elements.extend((GAP, waypoint))
        elements.extend((GAP, destination))
        return cls(elements)

    @property
    def concrete_vertices(self) -> Tuple[int, ...]:
        """The literal vertex ids in the pattern (for index pruning)."""
        return tuple(e for e in self.elements if isinstance(e, int))

    def matches(self, path: Sequence[int]) -> bool:
        """``True`` when *path* matches this (anchored) pattern."""
        return match_pattern(path, self.elements)

    def __repr__(self) -> str:
        return f"PathPattern({list(self.elements)!r})"
