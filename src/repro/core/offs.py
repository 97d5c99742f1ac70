"""The OFFS codec — the paper's contribution, behind one friendly class.

:class:`OFFSCodec` ties the pieces together: ``TConstruct*`` table
construction (:mod:`repro.core.builder`), greedy compression and one-pass
decompression (:mod:`repro.core.compressor`), with the paper's deployed
defaults (δ = 8, α = 5, i = 4, k = 7).

>>> from repro import OFFSCodec, PathDataset
>>> ds = PathDataset([[1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 2, 3, 9]])
>>> codec = OFFSCodec.fast().fit(ds)
>>> token = codec.compress_path((1, 2, 3, 4))
>>> codec.decompress_path(token)
(1, 2, 3, 4)
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.builder import BuildReport, TableBuilder
from repro.core.codec import TableCodec
from repro.core.config import OFFSConfig
from repro.core.supernode_table import SupernodeTable
from repro.paths.encoding import DEFAULT_ENCODING, Encoding


class OFFSCodec(TableCodec):
    """Overlap-Free Frequent Subpath compressor.

    :param config: an :class:`~repro.core.config.OFFSConfig`; defaults to the
        paper's default mode ``(i, k) = (4, 7)``.

    After :meth:`fit`, :attr:`build_report` records how construction went
    (sampled paths, per-iteration candidate counts, timings), and
    :attr:`order` holds the fitted :class:`~repro.paths.reorder.VertexOrder`
    when ``config.reorder`` names a non-identity strategy (``None``
    otherwise).  With an order active, :meth:`fit` trains the table on the
    *reordered* corpus, :meth:`compress_path` relabels inputs before
    matching and :meth:`decompress_path` restores original ids — the
    reordering is invisible at the codec surface.
    """

    name = "OFFS"

    def __init__(self, config: Optional[OFFSConfig] = None, base_id: Optional[int] = None) -> None:
        config = config or OFFSConfig.default_mode()
        super().__init__(base_id=base_id)
        self.config = config
        self.build_report: Optional[BuildReport] = None
        self.order = None

    def fit(self, dataset) -> "OFFSCodec":
        if self.config.reorder != "identity":
            from repro.paths.reorder import fit_order

            self.order = fit_order(self.config.reorder, dataset)
            if self.order is not None:
                dataset = self.order.transform_corpus(dataset)
        else:
            self.order = None
        super().fit(dataset)
        return self

    def build_table(self, dataset) -> SupernodeTable:
        table, report = TableBuilder(self.config).build(dataset, base_id=self.base_id)
        self.build_report = report
        return table

    def compress_path(self, path: Sequence[int]) -> Tuple[int, ...]:
        if self.order is not None:
            path = self.order.apply_path(path)
        return super().compress_path(path)

    def decompress_path(self, token: Sequence[int]) -> Tuple[int, ...]:
        path = super().decompress_path(token)
        if self.order is not None:
            path = self.order.invert_path(path)
        return path

    def rule_size_bytes(self, encoding: Encoding = DEFAULT_ENCODING) -> int:
        """Table cost plus, when reordering, the persisted order table.

        The order's backward map is part of the rule ``R`` — without it a
        reader cannot restore original ids — so compression ratios charge
        for it the same way they charge for the supernode table.
        """
        total = super().rule_size_bytes(encoding)
        if self.order is not None:
            total += self.order.size_bytes(encoding)
        return total

    # -- named modes -----------------------------------------------------------

    @classmethod
    def default(cls, **overrides) -> "OFFSCodec":
        """The paper's OFFS default mode: ``(i, k) = (4, 7)``."""
        return cls(OFFSConfig.default_mode(**overrides))

    @classmethod
    def fast(cls, **overrides) -> "OFFSCodec":
        """The paper's OFFS* fast mode: ``(i, k) = (2, 7)``.

        Stops refining once candidates have just reached full length;
        Fig. 5 shows it trades ≈ 0.33 CR for ≈ 1.5× construction speed.
        """
        codec = cls(OFFSConfig.fast_mode(**overrides))
        codec.name = "OFFS*"
        return codec
