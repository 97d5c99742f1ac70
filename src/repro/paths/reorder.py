"""Compression-aware vertex reordering: an invertible order fit on a corpus.

Under variable-length integer coding, ids below 128 cost one byte, below
16384 two, so the hottest vertices should own the smallest ids.  This
module is that pass for OFFS: :func:`fit_order` produces an invertible
:class:`VertexOrder` with a deterministic tie-break, fit on a
:class:`~repro.core.FlatCorpus` (or any path iterable) in one counting
pass over the data:

* ``identity`` — keep ids as they are (:func:`fit_order` returns ``None``;
  nothing is persisted and readers skip the inversion entirely).
* ``frequency`` — hottest-first ids, sorted by ``(-count, vertex)``.

The WebGraph lineage's BFS and label-propagation orders pay off because
successor lists are gap-coded; OFFS tokens store absolute ids, so an order
can only narrow varints, and hottest-first already does that.  Archives
whose order section names the retired ``bfs`` / ``locality`` strategies
still open: a stored name is metadata, inversion reads the backward map.

Orders persist as the RPC2 order-table section (``docs/formats.md``) via
:meth:`VertexOrder.to_bytes` / :meth:`VertexOrder.from_bytes`, and the
stores apply them at the boundary: ingestion maps original → new ids,
every retrieval surface inverts, so callers always see original ids.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import CorruptDataError, InvalidInputError
from repro.obs import catalog
from repro.obs.runtime import active_timer, get_active
from repro.paths.encoding import VarintEncoding, read_varint

#: The strategies :func:`fit_order` fits, ``identity`` first (the default).
ORDER_STRATEGIES: Tuple[str, ...] = ("identity", "frequency")

#: Every name an order may carry: the fitted strategies plus the retired
#: ``bfs`` / ``locality``, which earlier writers stored in order sections.
_KNOWN_NAMES: Tuple[str, ...] = ORDER_STRATEGIES + ("bfs", "locality")

_VARINT = VarintEncoding()


class VertexOrder:
    """A learned bijective vertex relabelling with a named strategy.

    :param strategy: the strategy name that produced this order (a
        retired ``bfs`` / ``locality`` name is accepted for old archives).
    :param backward: original ids in new-id order — ``backward[new] == old``.

    The forward map (original → new) is derived; both directions are O(1).
    Unknown vertices raise :class:`~repro.core.errors.InvalidInputError`
    on :meth:`apply_vertex` — an order only covers the corpus it was fit
    on, and silently passing ids through would corrupt the store.
    """

    __slots__ = ("strategy", "_forward", "_backward", "_lookup")

    def __init__(self, strategy: str, backward: Sequence[int]) -> None:
        if strategy not in _KNOWN_NAMES:
            raise InvalidInputError(
                f"unknown order strategy {strategy!r}; "
                f"expected one of {ORDER_STRATEGIES}"
            )
        backward_list = list(backward)
        forward = {old: new for new, old in enumerate(backward_list)}
        if len(forward) != len(backward_list):
            raise InvalidInputError("order backward map repeats a vertex id")
        for old in backward_list:
            if old < 0:
                raise InvalidInputError("vertex ids must be non-negative")
        self.strategy = strategy
        self._forward = forward
        self._backward = backward_list
        self._lookup = None

    # -- application -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._backward)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexOrder):
            return NotImplemented
        return self.strategy == other.strategy and self._backward == other._backward

    def __repr__(self) -> str:
        return f"VertexOrder(strategy={self.strategy!r}, vertices={len(self)})"

    def apply_vertex(self, vertex: int) -> int:
        """The new id of *vertex*."""
        try:
            return self._forward[vertex]
        except KeyError:
            raise self._uncovered(vertex) from None

    def apply_path(self, path: Sequence[int]) -> Tuple[int, ...]:
        """Relabel one path into new-id space."""
        forward = self._forward
        try:
            return tuple(forward[v] for v in path)
        except KeyError as exc:
            raise self._uncovered(exc.args[0]) from None

    def invert_path(self, path: Sequence[int]) -> Tuple[int, ...]:
        """Restore one relabelled path to original ids."""
        return tuple(self.invert_flat(path))

    def invert_flat(self, vertices: Iterable[int]) -> List[int]:
        """Restore a flat run of relabelled vertices to original ids.

        One pass over a whole corpus buffer; the result holds the order's
        own int objects, so a bulk restore allocates no int per vertex.
        A new id outside the order raises
        :class:`~repro.core.errors.InvalidInputError`.
        """
        try:
            return list(map(self._backward.__getitem__, vertices))
        except IndexError:
            raise InvalidInputError(
                "path contains a new id outside this order"
            ) from None

    def transform_corpus(self, corpus):
        """A new :class:`~repro.core.FlatCorpus` with every vertex relabelled.

        The relabel runs over blocks of
        :data:`~repro.core.flatcorpus.BLOCK_SYMBOLS` symbols, each a sorted
        lookup written into one preallocated output buffer.  The first
        vertex the order does not cover raises
        :class:`~repro.core.errors.InvalidInputError`.
        """
        from array import array

        from repro.core.flatcorpus import BLOCK_SYMBOLS, FlatCorpus, as_flat_corpus

        flat = as_flat_corpus(corpus)
        name = f"{flat.name}/{self.strategy}"
        if self._lookup is None:
            old = np.array(self._backward, dtype=np.int64)
            by_old = np.argsort(old)
            self._lookup = (old[by_old], by_old)
        keys, new_ids = self._lookup
        source = flat.as_numpy()[0]
        buffer = array("q", [0]) * len(source)
        target = np.frombuffer(buffer, dtype=np.int64)
        for lo in range(0, len(source), BLOCK_SYMBOLS):
            block = source[lo : lo + BLOCK_SYMBOLS]
            at = np.searchsorted(keys, block)
            np.minimum(at, len(keys) - 1, out=at)
            covered = keys[at] == block if len(keys) else np.zeros(len(block), bool)
            if not covered.all():
                raise self._uncovered(int(block[np.argmin(covered)]))
            target[lo : lo + len(block)] = new_ids[at]
        return FlatCorpus(buffer, flat.offsets, name=name)

    def _uncovered(self, vertex: int) -> InvalidInputError:
        return InvalidInputError(
            f"vertex {vertex} is not covered by this {self.strategy!r} order"
        )

    # -- size accounting -----------------------------------------------------------

    def size_bytes(self, encoding=None) -> int:
        """Byte cost of persisting this order's backward map under *encoding*.

        Default is varint — the RPOT section's actual coding: a count
        marker plus one integer per vertex (the original id at each new
        id).  This is the cost :meth:`OFFSCodec.rule_size_bytes` adds so
        compression ratios charge for the mapping they depend on.
        """
        enc = encoding if encoding is not None else _VARINT
        total = enc.size_of_value(len(self._backward))
        for old in self._backward:
            total += enc.size_of_value(old)
        return total

    # -- persistence ---------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The RPOT section *body*: strategy name + backward map, varints.

        Layout: ``varint(len(name))  name-utf8  varint(count)  count ×
        varint(original id)`` — original ids in new-id order.  The section
        framing (magic, length, CRC) lives in :mod:`repro.core.serialize`.
        """
        name = self.strategy.encode("utf-8")
        backward, _ = _VARINT.encode_runs([self._backward], prefixed=True)
        return _VARINT.encode((len(name),)) + name + backward

    @classmethod
    def from_bytes(cls, data: bytes) -> "VertexOrder":
        """Decode a :meth:`to_bytes` body.

        Raises :class:`~repro.core.errors.CorruptDataError` (a damaged
        varint's error carries its byte offset within *data*).
        """
        name_len, pos = read_varint(data, 0)
        if pos + name_len > len(data):
            raise CorruptDataError("order-table strategy name overruns the body")
        try:
            strategy = data[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptDataError(f"order-table strategy name is not UTF-8: {exc}")
        pos += name_len
        if strategy not in _KNOWN_NAMES or strategy == "identity":
            raise CorruptDataError(
                f"order-table names unknown strategy {strategy!r}"
            )
        count, pos = read_varint(data, pos)
        backward: List[int] = []
        for _ in range(count):
            old, pos = read_varint(data, pos)
            backward.append(old)
        if pos != len(data):
            raise CorruptDataError(
                f"order-table body has {len(data) - pos} trailing byte(s)"
            )
        try:
            return cls(strategy, backward)
        except InvalidInputError as exc:
            raise CorruptDataError(f"order-table body invalid: {exc}") from None


# -- fitting -------------------------------------------------------------------


def _count(paths: Iterable[Sequence[int]]) -> Counter:
    """One pass over *paths*: the occurrence count of every vertex."""
    counts: Counter = Counter()
    for path in paths:
        counts.update(path)
    return counts


def fit_order(strategy: str, paths: Iterable[Sequence[int]]) -> Optional[VertexOrder]:
    """Fit *strategy* on *paths* (a corpus or any path iterable), one pass.

    Returns ``None`` for ``identity`` — the no-op order is never
    materialized, so every ``order is None`` check downstream stays the
    zero-cost fast path.  Publishes ``reorder.*`` observability when a
    scope is active: fit time, vertex count, order entropy, and the
    varint bytes the order saves across the corpus.
    """
    if strategy not in ORDER_STRATEGIES:
        raise InvalidInputError(
            f"unknown order strategy {strategy!r}; expected one of {ORDER_STRATEGIES}"
        )
    if strategy == "identity":
        return None
    with active_timer(catalog.REORDER_FIT_SECONDS):
        counts = _count(paths)
        # Hottest-first; equal frequencies break on the smaller original id.
        hottest = sorted(counts.items(), key=lambda e: (-e[1], e[0]))
        order = VertexOrder(strategy, [v for v, _ in hottest])
    obs = get_active()
    if obs is not None:
        obs.registry.set_gauge(catalog.REORDER_VERTICES, len(order))
        obs.registry.set_gauge(
            catalog.REORDER_ORDER_ENTROPY, order_entropy_bits(counts)
        )
        obs.registry.set_gauge(
            catalog.REORDER_VARINT_BYTES_SAVED, _bytes_saved(order, counts)
        )
    return order


def order_entropy_bits(counts) -> float:
    """Shannon entropy (bits) of the vertex-frequency distribution.

    Low entropy means a few vertices dominate — exactly when a
    hottest-first order pays off; high entropy (uniform traffic) predicts
    small reordering wins.  Accepts a ``Counter``/mapping of frequencies.
    """
    from math import log2

    total = sum(counts.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        if count:
            p = count / total
            entropy -= p * log2(p)
    return entropy


def _bytes_saved(order: VertexOrder, counts) -> int:
    """Varint bytes saved across all occurrences, from a frequency map."""
    size = _VARINT.size_of_value
    saved = 0
    for old, count in counts.items():
        saved += count * (size(old) - size(order.apply_vertex(old)))
    return saved


def varint_bytes_saved(order: Optional[VertexOrder], paths) -> int:
    """Varint bytes *order* saves summed over every vertex occurrence.

    Positive means the reordered corpus codes smaller than the original
    under LEB128 — the headline number ``benchmarks/bench_reorder.py``
    reports.  ``None`` (identity) trivially saves nothing.
    """
    if order is None:
        return 0
    return _bytes_saved(order, _count(paths))
