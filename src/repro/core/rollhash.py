"""The batch kernel of bulk encode: rolling window hashes over a flat corpus.

The flat hash (Algorithm 6) and the two-level hash (Algorithm 7) probe one
position of one path at a time, hashing a fresh tuple per candidate length.
Bulk encode instead asks the question once per *corpus*.  With prefix
hashes ``P[i]`` of each path, a polynomial rolling hash gives

    hash(path[pos:pos+L]) = P[pos+L] - P[pos] * B**L      (mod 2**64)

for every position and every candidate length in a few vectorized
operations.  :class:`FlatBatchKernel` collapses those window hashes into a
per-position best-candidate-length array, leaving compression proper a
thin greedy verify loop
(:func:`~repro.core.compressor.compress_paths_flat`, which runs the kernel
for every matcher through :meth:`~repro.core.matcher.CandidateSet.
flat_kernel`).

Correctness is never entrusted to the hash: every nomination is verified
against the exact table before a match is emitted, so output is
bit-identical to the per-path loop even under adversarial collisions (the
kernel's ``hash_bits`` argument exists precisely to let tests force
collisions and exercise the verify step).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.errors import InvalidInputError
from repro.core.flatcorpus import FlatCorpus

#: Polynomial base: an odd 64-bit constant (odd ⇒ invertible mod 2**64,
#: which the vectorized kernel's cumulative-sum formulation needs).
HASH_BASE = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1


def _hash_sequence(seq: Sequence[int], mask: int) -> int:
    """The rolling hash of a whole sequence (the table-entry side)."""
    h = 0
    for v in seq:
        h = (h * HASH_BASE + v + 1) & _MASK64
    return h & mask


class FlatBatchKernel:
    """Corpus-level rolling-hash matcher over a *static* supernode table.

    Built once per batch from a :class:`~repro.core.supernode_table.
    SupernodeTable`; :meth:`best_lengths` computes, for every symbol position
    of a :class:`FlatCorpus`, the longest candidate length whose window hash
    matches there (1 where none does).  The greedy compressor then walks
    that array and verifies each nominated match against the table — the
    only per-position Python work left.

    :param table: the supernode table to match against.
    :param hash_bits: width of the window hashes (default 64).  Smaller
        widths force collisions; output stays identical because every
        nomination is verified — only verify work grows.  Tests use this
        adversarially.
    """

    def __init__(self, table, hash_bits: int = 64) -> None:
        if not 1 <= hash_bits <= 64:
            raise InvalidInputError("hash_bits must be in [1, 64]")
        self.table = table
        self.hash_bits = hash_bits
        self._hash_mask = (1 << hash_bits) - 1
        self._by_length: Dict[int, set] = {}
        for _, subpath in table:
            self._by_length.setdefault(len(subpath), set()).add(
                _hash_sequence(subpath, self._hash_mask)
            )
        self.lengths = sorted(self._by_length)
        #: Work counters for the batch pass (probes = window tests issued,
        #: hashed_vertices = O(1) window tests; verify costs are accounted
        #: by the greedy loop in :func:`repro.core.compressor.compress_paths_flat`).
        self.batch_probes = 0

    def best_lengths(self, corpus: FlatCorpus) -> List[int]:
        """Per-symbol best hash-nominated candidate length.

        The returned list has one entry per symbol of
        ``corpus.buffer``; entry values are 1 (no candidate nominated) or a
        candidate length L ≥ 2 with ``hash(window) ∈ table hashes``.
        Nominations are upper bounds: the greedy loop must verify (and on a
        rare collision, descend to shorter lengths).
        """
        buf_i64, offs = corpus.as_numpy()
        n_symbols = len(buf_i64)
        if n_symbols == 0 or not self.lengths:
            self.batch_probes = 0
            return [1] * n_symbols

        buf = buf_i64.view(np.uint64)
        path_lengths = np.diff(offs)
        max_path_len = int(path_lengths.max()) if len(path_lengths) else 0
        max_pow = max(max_path_len, self.lengths[-1]) + 1

        # Powers of the base and its modular inverse, mod 2**64 (uint64
        # multiplication wraps, which *is* the modulus).
        base = np.uint64(HASH_BASE)
        base_inv = np.uint64(pow(HASH_BASE, -1, 1 << 64))
        pows = np.empty(max_pow + 1, dtype=np.uint64)
        pows[0] = 1
        np.multiply.accumulate(np.full(max_pow, base, dtype=np.uint64), out=pows[1:])
        inv_pows = np.empty(max_path_len + 1, dtype=np.uint64)
        inv_pows[0] = 1
        if max_path_len:
            np.multiply.accumulate(
                np.full(max_path_len, base_inv, dtype=np.uint64), out=inv_pows[1:]
            )

        # Segmented prefix hashes over the flat buffer:
        #   P[i] = hash of the path prefix ending at absolute position i
        # via Q[i] = Σ (v_j + 1)·B^(-rel_j)  and  P[i] = Q_segment[i]·B^rel_i,
        # which turns the per-path recurrence into one cumulative sum.
        starts = np.repeat(offs[:-1], path_lengths)
        rel = np.arange(n_symbols, dtype=np.int64) - starts
        term = (buf + np.uint64(1)) * inv_pows[rel]
        csum = np.cumsum(term, dtype=np.uint64)
        seg_base = np.zeros(n_symbols, dtype=np.uint64)
        interior = starts > 0
        seg_base[interior] = csum[starts[interior] - 1]
        prefix = (csum - seg_base) * pows[rel]
        prefix_prev = np.empty(n_symbols, dtype=np.uint64)
        prefix_prev[0] = 0
        prefix_prev[1:] = prefix[:-1]
        prefix_prev[rel == 0] = 0

        ends = np.repeat(offs[1:], path_lengths)
        idx = np.arange(n_symbols, dtype=np.int64)
        best = np.ones(n_symbols, dtype=np.int64)
        hash_mask = np.uint64(self._hash_mask)
        probes = 0
        # Ascending lengths so the longest nomination wins the final write.
        for length in self.lengths:
            span = n_symbols - length + 1
            if span <= 0:
                continue
            windows = (prefix[length - 1 :] - prefix_prev[:span] * pows[length]) & hash_mask
            in_path = idx[:span] + length <= ends[:span]
            probes += int(in_path.sum())
            hit = self._membership(length, windows)
            hit &= in_path
            best[:span][hit] = length
        self.batch_probes = probes
        return best.tolist()

    def _membership(self, length: int, windows):
        """Vectorized ``windows ∈ table-hashes-of-length`` (may over-report).

        Uses a direct-addressed bitmap filter over the low hash bits, eight
        slots to a byte (128 KiB per length at 20 bits); false positives
        are fine (the greedy loop verifies every nomination), so the filter
        width only trades memory for verify frequency.
        """
        hashes = self._by_length[length]
        filter_bits = min(20, self.hash_bits)
        fmask = np.uint64((1 << filter_bits) - 1)
        key = f"_filter_{length}_{filter_bits}"
        bitmap = getattr(self, key, None)
        if bitmap is None:
            bitmap = np.zeros(((1 << filter_bits) + 7) >> 3, dtype=np.uint8)
            idx = np.fromiter(hashes, dtype=np.uint64, count=len(hashes))
            slots = (idx & fmask).astype(np.int64)
            np.bitwise_or.at(bitmap, slots >> 3, np.left_shift(1, slots & 7).astype(np.uint8))
            setattr(self, key, bitmap)
        slots = (windows & fmask).astype(np.int64)
        return ((bitmap[slots >> 3] >> (slots & 7).astype(np.uint8)) & 1).view(bool)
