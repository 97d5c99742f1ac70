"""Flat-corpus representation: one buffer, one offsets index, zero tuple churn.

Every batch operation in this repository — table construction, greedy
compression, parallel fan-out — ultimately walks a *dataset of paths*.  The
natural Python representation (a list of int tuples) pays for that
convenience twice: once in memory (object headers, per-tuple allocation) and
once in motion (pickling a list of tuples ships every element as an object).
A :class:`FlatCorpus` interns the same data as two ``array('q')`` buffers:

* ``buffer`` — every vertex of every path, concatenated;
* ``offsets`` — ``n + 1`` monotone positions; path *i* occupies
  ``buffer[offsets[i]:offsets[i+1]]``.

This is the layout bulk decode in :mod:`repro.core.compressor` consumes
(it gathers over ``buffer`` in one vectorized pass; bulk encode takes any
path iterable, a corpus included), and
the layout :mod:`repro.core.parallel` ships to worker processes: a chunk
is a buffer *slice* plus rebased offsets, picked up as machine bytes
rather than a forest of tuples.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.errors import BoundsError, InvalidInputError

Subpath = Tuple[int, ...]

#: What :meth:`FlatCorpus.to_shipping` produces: raw buffer bytes and raw
#: offsets bytes.  Deliberately plain (two ``bytes`` objects) so pickling a
#: chunk costs two memcpy-speed blobs.
ShippedCorpus = Tuple[bytes, bytes]

#: Symbols per block of the vectorized order relabel
#: (:meth:`~repro.paths.reorder.VertexOrder.transform_corpus`).  Its numpy
#: temporaries scale with the block, not the corpus, so peak memory stays
#: flat as corpora grow.
BLOCK_SYMBOLS = 1 << 15


class FlatCorpus:
    """An immutable path dataset interned into one flat int64 buffer.

    :param buffer: the concatenated vertices — an ``array('q')`` or a
        (zero-copy) ``memoryview`` of one.
    :param offsets: ``n + 1`` monotone ints starting at 0 and ending at
        ``len(buffer)``.
    :param name: label carried into stats and benchmark reports.

    Iterating yields each path as a fresh tuple; prefer :meth:`as_numpy`
    in hot code that can work on the raw buffer.
    """

    __slots__ = ("buffer", "offsets", "name")

    def __init__(self, buffer, offsets, name: str = "corpus") -> None:
        if len(offsets) == 0 or offsets[0] != 0:
            raise InvalidInputError("offsets must start at 0")
        if offsets[-1] != len(buffer):
            raise InvalidInputError(
                f"offsets end ({offsets[-1]}) must equal buffer length ({len(buffer)})"
            )
        self.buffer = buffer
        self.offsets = offsets
        self.name = name

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Iterable[Sequence[int]], name: str = "corpus") -> "FlatCorpus":
        """Intern *paths* (any iterable of int sequences) into a corpus."""
        buffer = array("q")
        offsets = array("q", [0])
        extend = buffer.extend
        append = offsets.append
        for p in paths:
            extend(p)
            append(len(buffer))
        return cls(buffer, offsets, name=name)

    @classmethod
    def concat(cls, corpora: Iterable["FlatCorpus"]) -> "FlatCorpus":
        """One corpus holding the paths of every corpus in *corpora*, in order."""
        buffer = array("q")
        offsets = array("q", [0])
        for corpus in corpora:
            base = len(buffer)
            buffer.frombytes(memoryview(corpus.buffer).cast("B"))
            offsets.extend(map(base.__add__, corpus.offsets[1:]))
        return cls(buffer, offsets)

    @classmethod
    def from_shipping(cls, payload: ShippedCorpus, name: str = "corpus") -> "FlatCorpus":
        """Rebuild a corpus from :meth:`to_shipping` output."""
        buffer_bytes, offsets_bytes = payload
        buffer = array("q")
        buffer.frombytes(buffer_bytes)
        offsets = array("q")
        offsets.frombytes(offsets_bytes)
        return cls(buffer, offsets, name=name)

    def to_shipping(self) -> ShippedCorpus:
        """The corpus as two machine-byte blobs (cheap to pickle)."""
        return bytes(self.buffer), bytes(self.offsets)

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        """Number of paths."""
        return len(self.offsets) - 1

    def __getitem__(self, index: int) -> Subpath:
        return self.path(index)

    def __iter__(self) -> Iterator[Subpath]:
        buffer = self.buffer
        offsets = self.offsets
        start = offsets[0]
        for i in range(1, len(offsets)):
            end = offsets[i]
            yield tuple(buffer[start:end])
            start = end

    def __repr__(self) -> str:
        return (
            f"FlatCorpus(name={self.name!r}, paths={len(self)}, "
            f"symbols={self.total_symbols})"
        )

    # -- accessors ----------------------------------------------------------------

    @property
    def total_symbols(self) -> int:
        """Total vertices across all paths (the paper's ``|P|`` in nodes)."""
        return len(self.buffer)

    def path(self, index: int) -> Subpath:
        """Path *index* materialized as a tuple."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise BoundsError(f"path index {index} out of range")
        return tuple(self.buffer[self.offsets[index] : self.offsets[index + 1]])

    def max_vertex(self) -> int:
        """Largest vertex id in the corpus; ``-1`` when empty."""
        if len(self.buffer) == 0:
            return -1
        return int(self.as_numpy()[0].max())

    def to_paths(self) -> List[Subpath]:
        """Materialize every path as a tuple (the legacy representation)."""
        return list(self)

    def as_numpy(self):
        """Zero-copy numpy views ``(buffer, offsets)`` as int64."""
        buf = np.frombuffer(self.buffer, dtype=np.int64)
        offs = np.frombuffer(self.offsets, dtype=np.int64)
        return buf, offs

    # -- chunking (parallel fan-out) ----------------------------------------------

    def chunk(self, start: int, stop: int) -> "FlatCorpus":
        """Paths ``start:stop`` as a corpus sharing this buffer (zero-copy).

        The returned corpus's ``buffer`` is a memoryview slice; its offsets
        are rebased to start at 0.
        """
        n = len(self)
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        lo = self.offsets[start]
        hi = self.offsets[stop]
        buffer = memoryview(self.buffer)[lo:hi]
        offsets = array("q", (self.offsets[i] - lo for i in range(start, stop + 1)))
        return FlatCorpus(buffer, offsets, name=f"{self.name}[{start}:{stop}]")

    def every(self, stride: int) -> "FlatCorpus":
        """Every *stride*-th path as a new corpus (the paper's sampling)."""
        if stride < 1:
            raise InvalidInputError("stride must be >= 1")
        if stride == 1:
            return self
        buffer = array("q")
        offsets = array("q", [0])
        for i in range(0, len(self), stride):
            buffer.extend(self.buffer[self.offsets[i] : self.offsets[i + 1]])
            offsets.append(len(buffer))
        return FlatCorpus(buffer, offsets, name=f"{self.name}/every{stride}")


def as_flat_corpus(paths, name: str = "corpus") -> FlatCorpus:
    """Coerce *paths* (a :class:`FlatCorpus` or any path iterable) to a corpus."""
    if isinstance(paths, FlatCorpus):
        return paths
    dataset_name = getattr(paths, "name", None)
    return FlatCorpus.from_paths(paths, name=dataset_name or name)
