"""The supernode (lookup) table ``ST`` and its inverse ``ST^-1``.

The compression rule ``R`` of the paper is a table mapping *supernode ids* to
the frequent subpaths they stand for.  Compression replaces subpaths by
supernode ids (Algorithm 2); decompression expands ids back (Algorithm 1).

Design decisions:

* **Id space.**  Supernode ids are allocated contiguously starting at
  ``base_id``, which must be strictly greater than every vertex id the table
  will ever meet.  A compressed path is then an ordinary integer sequence in
  which any value ``>= base_id`` is a supernode — no escape markers needed,
  and the stream stays "a path over an extended vertex set", preserving the
  minability the paper wants (Section II-C, drawback (2) of Dlz4).
* **Bidirectional maps.**  ``ST`` (id → subpath) and ``ST^-1`` (subpath → id)
  are kept in lock-step; the class enforces the bijection.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.errors import TableError

Subpath = Tuple[int, ...]


class SupernodeTable:
    """A bijective map between supernode ids and frequent subpaths.

    :param base_id: first supernode id; every vertex id in every subpath must
        be smaller than this.
    :param subpaths: the subpaths to register, assigned ids ``base_id``,
        ``base_id + 1``, ... in iteration order.
    """

    def __init__(self, base_id: int, subpaths: Iterable[Sequence[int]] = ()) -> None:
        if base_id < 1:
            raise TableError("base_id must be >= 1")
        self.base_id = base_id
        self._by_id: Dict[int, Subpath] = {}
        self._by_subpath: Dict[Subpath, int] = {}
        self._max_subpath_len = 0
        self._expansion_cache = None
        self._prefix_bounds: Dict[Subpath, int] | None = None
        for sp in subpaths:
            self.add(sp)

    # -- mutation -------------------------------------------------------------

    def add(self, subpath: Sequence[int]) -> int:
        """Register *subpath* and return its supernode id.

        Re-adding an existing subpath returns its existing id.  Subpaths must
        have at least two vertices (a single vertex gains nothing) and all
        vertex ids must lie below ``base_id``.
        """
        sp = tuple(subpath)
        if len(sp) < 2:
            raise TableError(f"supernode subpaths need >= 2 vertices, got {sp!r}")
        existing = self._by_subpath.get(sp)
        if existing is not None:
            return existing
        for v in sp:
            if v < 0:
                raise TableError(f"negative vertex id {v} in subpath {sp!r}")
            if v >= self.base_id:
                raise TableError(
                    f"vertex id {v} in subpath {sp!r} collides with the supernode "
                    f"id space (base_id={self.base_id})"
                )
        sid = self.base_id + len(self._by_id)
        self._by_id[sid] = sp
        self._by_subpath[sp] = sid
        if len(sp) > self._max_subpath_len:
            self._max_subpath_len = len(sp)
        # Derived lookups are memoized per table state.
        self._expansion_cache = None
        self._prefix_bounds = None
        return sid

    # -- lookups ---------------------------------------------------------------

    def is_supernode(self, symbol: int) -> bool:
        """``True`` when *symbol* denotes a supernode rather than a vertex."""
        return symbol >= self.base_id

    def expand(self, supernode_id: int) -> Subpath:
        """``ST[id]``: the subpath a supernode stands for."""
        try:
            return self._by_id[supernode_id]
        except KeyError:
            raise TableError(f"unknown supernode id {supernode_id}") from None

    def id_of(self, subpath: Sequence[int]) -> int:
        """``ST^-1[subpath]``: the supernode id for *subpath* (KeyError-free).

        Raises :class:`TableError` when absent; use :meth:`get_id` to probe.
        """
        sid = self._by_subpath.get(tuple(subpath))
        if sid is None:
            raise TableError(f"subpath {tuple(subpath)!r} is not in the table")
        return sid

    def get_id(self, subpath: Sequence[int]) -> int | None:
        """Like :meth:`id_of` but returns ``None`` when absent."""
        return self._by_subpath.get(tuple(subpath))

    def __contains__(self, subpath: Sequence[int]) -> bool:
        return tuple(subpath) in self._by_subpath

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Tuple[int, Subpath]]:
        return iter(self._by_id.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupernodeTable):
            return NotImplemented
        return self.base_id == other.base_id and self._by_id == other._by_id

    def __repr__(self) -> str:
        return (
            f"SupernodeTable(base_id={self.base_id}, entries={len(self)}, "
            f"max_len={self._max_subpath_len})"
        )

    # -- derived data ------------------------------------------------------------

    def expansions(self):
        """The memoized :class:`~repro.core.expansion.ExpansionCache`.

        Built on first use (every supernode flattened to its full vertex
        tuple, iteratively) and reused until the table is mutated; the
        decode paths — :func:`~repro.core.compressor.decompress_path`, the
        batch kernel, slice retrieval — all read from this one snapshot.
        Cache traffic is published as ``table.expansion_cache.*`` when the
        obs layer is active.
        """
        from repro.core.expansion import ExpansionCache
        from repro.obs import catalog
        from repro.obs.runtime import get_active

        cache = self._expansion_cache
        obs = get_active()
        if cache is None:
            cache = ExpansionCache.from_table(self)
            self._expansion_cache = cache
            if obs is not None:
                obs.registry.counter(catalog.TABLE_EXPANSION_CACHE_MISSES).inc()
                obs.registry.set_gauge(
                    catalog.TABLE_EXPANSION_CACHE_ENTRIES, len(cache)
                )
        elif obs is not None:
            obs.registry.counter(catalog.TABLE_EXPANSION_CACHE_HITS).inc()
        return cache

    def invalidate_expansions(self) -> None:
        """Drop the memoized expansion cache (rebuilt lazily on next use).

        :meth:`add` already invalidates on mutation; this public hook exists
        for callers that need to *measure* the cold path — the ablation
        harness's ``expansion_cache=off`` cells and the smoke benchmark's
        cold-vs-warm decode rows — without reaching into the private slot.
        """
        self._expansion_cache = None

    def prefix_index(self) -> Tuple[Dict[Subpath, int], Mapping[Subpath, int]]:
        """The lookups of the exact encoder: ``(bounds, ids)``.

        ``bounds`` maps the first two vertices of every entry to the longest
        entry length with that prefix, so a position whose next two
        vertices are not a key starts no entry, and one that is starts none
        longer than its bound (the α = 2 prefix bucket of Algorithm 7).  It
        is built on first use and reused until :meth:`add` drops it, like
        :meth:`expansions`.  ``ids`` is ``ST^-1`` itself, not a copy: read
        it, never write it.
        """
        bounds = self._prefix_bounds
        if bounds is None:
            bounds = {}
            for sp in self._by_subpath:
                key = sp[:2]
                if len(sp) > bounds.get(key, 0):
                    bounds[key] = len(sp)
            self._prefix_bounds = bounds
        return bounds, self._by_subpath

    @property
    def max_subpath_length(self) -> int:
        """Length of the longest registered subpath (the effective δ)."""
        return self._max_subpath_len

    @property
    def subpaths(self) -> List[Subpath]:
        """All registered subpaths in id order."""
        return [self._by_id[sid] for sid in sorted(self._by_id)]

    def inverted(self) -> Mapping[Subpath, int]:
        """A read-only view of ``ST^-1`` (subpath → id)."""
        return dict(self._by_subpath)

    def rule_symbol_count(self) -> int:
        """Number of integer symbols needed to write the rule ``R`` down.

        Each entry costs its subpath length plus one length marker; ids are
        implicit (contiguous).  The symbol count of the entries
        :meth:`~repro.core.codec.TableCodec.rule_size_bytes` prices in bytes.
        """
        return sum(len(sp) + 1 for sp in self._by_id.values())

    def validate(self) -> None:
        """Check internal invariants; raises :class:`TableError` on breakage.

        Invariants: the two maps are mutually inverse, ids are contiguous
        from ``base_id``, and no subpath contains an id ≥ ``base_id``.
        """
        if len(self._by_id) != len(self._by_subpath):
            raise TableError("ST and ST^-1 sizes diverge")
        expected_ids = set(range(self.base_id, self.base_id + len(self._by_id)))
        if set(self._by_id) != expected_ids:
            raise TableError("supernode ids are not contiguous from base_id")
        for sid, sp in self._by_id.items():
            if self._by_subpath.get(sp) != sid:
                raise TableError(f"inverse lookup broken for supernode {sid}")
            if any(v >= self.base_id for v in sp):
                raise TableError(f"subpath {sp!r} intrudes into the supernode id space")
