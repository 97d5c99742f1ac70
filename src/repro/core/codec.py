"""The common codec interface every compressor in this repository implements.

The paper compares compressors that produce very different artifacts —
integer streams with a supernode table (OFFS, RSS, GFS) versus opaque byte
blobs with a trained dictionary (Dlz4) — under one set of measures
(CR / CS / DS / PDS, Section VI-B).  :class:`PathCodec` is the contract that
makes that comparison honest: every codec must

* ``fit`` on a dataset (train its rule ``R``),
* ``compress_path`` / ``decompress_path`` losslessly per path, and
* account its sizes in real bytes via an
  :class:`~repro.paths.encoding.Encoding`.

:class:`TableCodec` implements the whole contract for any compressor whose
rule is a supernode table; subclasses only choose *which* table to build.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.compressor import compress_path, decompress_path
from repro.core.errors import NotFittedError
from repro.core.supernode_table import SupernodeTable
from repro.paths.encoding import DEFAULT_ENCODING, Encoding


class PathCodec(ABC):
    """Abstract lossless per-path compressor.

    ``name`` labels the codec in benchmark reports.  The compressed token
    type is codec-specific (integer tuples for dictionary codecs, bytes for
    generic ones); callers must treat it as opaque and round-trip it through
    the same codec instance.
    """

    name: str = "codec"

    @abstractmethod
    def fit(self, dataset) -> "PathCodec":
        """Train the codec's rule on *dataset*; returns ``self`` for chaining."""

    @abstractmethod
    def compress_path(self, path: Sequence[int]) -> Any:
        """Compress one path to an opaque token."""

    @abstractmethod
    def decompress_path(self, token: Any) -> Tuple[int, ...]:
        """Restore the original path from a token."""

    @abstractmethod
    def rule_size_bytes(self, encoding: Encoding = DEFAULT_ENCODING) -> int:
        """Byte cost of the rule ``R`` (table / dictionary) under *encoding*."""

    @abstractmethod
    def compressed_size_bytes(self, token: Any, encoding: Encoding = DEFAULT_ENCODING) -> int:
        """Byte cost of one compressed token under *encoding*."""

    # -- conveniences -----------------------------------------------------------

    def compress_dataset(self, dataset) -> List[Any]:
        """Compress every path of *dataset* in order."""
        return [self.compress_path(p) for p in dataset]

    def decompress_dataset(self, tokens: Sequence[Any]) -> List[Tuple[int, ...]]:
        """Decompress a list of tokens in order."""
        return [self.decompress_path(t) for t in tokens]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class TableCodec(PathCodec):
    """A codec whose rule is a :class:`SupernodeTable`.

    Subclasses implement :meth:`build_table`; compression (the table's exact
    encoder, :func:`~repro.core.compressor.compress_path`), decompression
    and size accounting are shared, so RSS, GFS and OFFS differ *only* in
    how they pick supernodes — exactly the comparison the paper makes.
    """

    def __init__(self, base_id: Optional[int] = None) -> None:
        #: First supernode id.  ``None`` lets ``fit`` derive it from the
        #: training data; set it explicitly when the training set is a sample
        #: of a larger universe (otherwise unseen larger vertex ids would
        #: collide with the supernode id space at compression time).
        self.base_id = base_id
        self._table: Optional[SupernodeTable] = None

    @abstractmethod
    def build_table(self, dataset) -> SupernodeTable:
        """Construct this codec's supernode table for *dataset*."""

    # -- PathCodec implementation --------------------------------------------------

    def fit(self, dataset) -> "TableCodec":
        self._table = self.build_table(dataset)
        return self

    @property
    def table(self) -> SupernodeTable:
        """The trained table; raises :class:`NotFittedError` before ``fit``."""
        if self._table is None:
            raise NotFittedError(f"{self.name}: call fit() before (de)compressing")
        return self._table

    def compress_path(self, path: Sequence[int]) -> Tuple[int, ...]:
        return compress_path(path, self.table)

    def decompress_path(self, token: Sequence[int]) -> Tuple[int, ...]:
        return decompress_path(token, self.table)

    def rule_size_bytes(self, encoding: Encoding = DEFAULT_ENCODING) -> int:
        """Table cost: per entry, a length marker plus the subpath ids.

        Matches :meth:`SupernodeTable.rule_symbol_count`; supernode ids are
        implicit because they are contiguous from ``base_id``.
        """
        table = self.table
        total = encoding.size_of_value(table.base_id)
        for _, subpath in table:
            total += encoding.size_of_value(len(subpath))
            total += encoding.size_of(subpath)
        return total

    def compressed_size_bytes(
        self, token: Sequence[int], encoding: Encoding = DEFAULT_ENCODING
    ) -> int:
        return encoding.size_of_value(len(token)) + encoding.size_of(token)
