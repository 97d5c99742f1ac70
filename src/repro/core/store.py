"""A compressed path store with per-path random access.

The applications that motivate the paper (Cases 1 and 2 of the introduction)
never decompress the whole archive: they pull out *some* paths — those
through an anomalous server, those between a client/terminal pair — and leave
the rest compressed.  :class:`CompressedPathStore` is that storage layer:

* paths are compressed individually at ingest and held as integer tokens;
* retrieval, queries and size accounting come from
  :class:`~repro.core.reader.PathReader` — :meth:`retrieve` decompresses
  exactly one path (``O(|P|)``, Lemma 1), :meth:`retrieve_batch` /
  :meth:`retrieve_fraction` the partial decompression of Fig. 6b.

The store is append-only; path ids are dense ints in insertion order.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.compressor import compress_path, compress_paths_flat
from repro.core.flatcorpus import FlatCorpus
from repro.core.reader import PathReader
from repro.core.supernode_table import SupernodeTable
from repro.obs import catalog
from repro.obs.runtime import get_active


class CompressedPathStore(PathReader):
    """Compressed, individually-retrievable storage for a path set.

    :param table: the supernode table paths are compressed against.
    :param matcher_backend: recorded as :attr:`matcher_backend` and
        otherwise unused: :meth:`append` and :meth:`extend` run the table's
        exact encoder.
    :param order: optional :class:`~repro.paths.reorder.VertexOrder` the
        table was built under.  With an order, ingestion relabels incoming
        paths (original → new ids) and every retrieval surface inverts, so
        callers always speak original ids; ``token()`` stays raw (new-id
        space), matching what the table expands to.

    Build one with :meth:`from_corpus` (fits nothing — bring a trained
    table) or :meth:`from_codec`, bulk-append with :meth:`extend`, or
    ingest one path at a time with :meth:`append`.
    """

    def __init__(
        self,
        table: SupernodeTable,
        matcher_backend: str = "hash",
        order=None,
    ) -> None:
        self.table = table
        self.matcher_backend = matcher_backend
        self.order = order
        self._tokens: List[Tuple[int, ...]] = []

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_corpus(
        cls, corpus, table: SupernodeTable, matcher_backend: str = "hash",
        order=None,
    ) -> "CompressedPathStore":
        """Compress every path of *corpus* (a
        :class:`~repro.core.flatcorpus.FlatCorpus` or any path iterable, such
        as a :class:`~repro.paths.dataset.PathDataset`) into a new store
        with one :meth:`extend`.
        """
        store = cls(table, matcher_backend=matcher_backend, order=order)
        store.extend(corpus)
        return store

    @classmethod
    def from_tokens(
        cls,
        table: SupernodeTable,
        tokens: Iterable[Sequence[int]],
        matcher_backend: str = "hash",
        order=None,
    ) -> "CompressedPathStore":
        """Wrap already-compressed *tokens* in a store without recompressing.

        The benchmark and ablation harnesses time compression separately and
        then need a store over the result for the decode-side measurements;
        re-ingesting would both double the work and pollute the ``store.*``
        ingest counters.  The caller asserts the tokens were produced against
        *table* — and, when *order* is given, in new-id space under that
        order — round-trip verification stays on the caller's side.
        """
        store = cls(table, matcher_backend=matcher_backend, order=order)
        store._tokens.extend(tuple(token) for token in tokens)
        return store

    @classmethod
    def from_codec(cls, dataset, codec) -> "CompressedPathStore":
        """Fit *codec* on *dataset* and ingest the whole dataset.

        *codec* must be a :class:`~repro.core.codec.TableCodec` (the store
        needs a supernode table to expand from).  A codec fitted with a
        reordering strategy hands its order through, so the store ingests
        and retrieves in original ids exactly like the codec does.
        """
        codec.fit(dataset)
        return cls.from_corpus(dataset, codec.table, order=getattr(codec, "order", None))

    def append(self, path: Sequence[int]) -> int:
        """Compress and store one path; returns its path id."""
        if self.order is not None:
            path = self.order.apply_path(path)
        token = compress_path(path, self.table)
        self._tokens.append(token)
        obs = get_active()
        if obs is not None:
            registry = obs.registry
            registry.counter(catalog.STORE_INGESTED_PATHS).inc()
            registry.counter(catalog.STORE_INGESTED_SYMBOLS_IN).inc(len(path))
            registry.counter(catalog.STORE_INGESTED_SYMBOLS_OUT).inc(len(token))
        return len(self._tokens) - 1

    def extend(self, paths: Iterable[Sequence[int]]) -> List[int]:
        """Append many paths in one batch; returns their ids in order.

        One :func:`~repro.core.compressor.compress_paths_flat` pass over
        *paths* as given (a list of tuples, a generator or a
        :class:`~repro.core.flatcorpus.FlatCorpus`), token-for-token
        identical to :meth:`append` per path.  The batch is all-or-nothing:
        if any path fails to compress (say, a vertex id at or above the
        table's ``base_id``), the error propagates and the store is
        unchanged.  With :mod:`repro.obs` active the batch is one
        ``store.ingest`` span and also publishes the ``compress.*`` and
        ``matcher.*`` counters of the underlying call.
        """
        if self.order is not None:
            paths = self.order.transform_corpus(paths)
        obs = get_active()
        if obs is None:
            tokens = compress_paths_flat(paths, self.table)
        else:
            if isinstance(paths, FlatCorpus):
                symbols_in = paths.total_symbols
            else:
                paths = list(paths)  # read twice: count symbols, then encode
                symbols_in = sum(map(len, paths))
            with obs.tracer.span(catalog.SPAN_STORE_INGEST) as span, obs.registry.timeit(
                catalog.STORE_INGEST_SECONDS
            ):
                tokens = compress_paths_flat(paths, self.table)
                if span is not None:
                    span.add("paths", len(tokens))
            registry = obs.registry
            registry.counter(catalog.STORE_INGESTED_PATHS).inc(len(tokens))
            registry.counter(catalog.STORE_INGESTED_SYMBOLS_IN).inc(symbols_in)
            registry.counter(catalog.STORE_INGESTED_SYMBOLS_OUT).inc(
                sum(len(t) for t in tokens)
            )
        first_id = len(self._tokens)
        self._tokens.extend(tokens)
        return list(range(first_id, len(self._tokens)))

    # -- token source (the PathReader contract) ------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, path_id: int) -> Tuple[int, ...]:
        """The raw compressed token for *path_id* (no decompression)."""
        self._check_id(path_id)
        return self._tokens[path_id]

    def tokens(self) -> List[Tuple[int, ...]]:
        """All compressed tokens, in path-id order (do not mutate)."""
        return self._tokens

    def __repr__(self) -> str:
        return (
            f"CompressedPathStore(paths={len(self._tokens)}, "
            f"table_entries={len(self.table)})"
        )
