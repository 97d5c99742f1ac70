"""Persistence for path datasets.

Two formats are supported:

* **Text** — one path per line, space-separated vertex ids.  Human readable,
  diff-friendly; the format used by the example scripts.
* **Binary** — a compact length-prefixed varint stream with a small header,
  for round-tripping large datasets and for the on-disk side of the
  compressed store.

Both are exact: ``load(save(ds)) == ds``.
"""

from __future__ import annotations

import struct
from pathlib import Path as FsPath
from typing import List, Tuple, Union

from repro.core.errors import CorruptDataError, TruncatedDataError
from repro.core.serialize import publish_file
from repro.paths.dataset import PathDataset
from repro.paths.encoding import VarintEncoding

_MAGIC = b"RPPD"  # RePro Path Dataset
_VERSION = 1
_HEADER = struct.Struct("<4sBI")  # magic, version, path count
_VARINT = VarintEncoding()


def save_text(dataset: PathDataset, path: Union[str, FsPath]) -> None:
    """Publish *dataset* as one space-separated path per line."""
    text = "".join(" ".join(str(v) for v in p) + "\n" for p in dataset)
    publish_file(str(path), text.encode("ascii"))


def load_text(path: Union[str, FsPath], name: str = "dataset") -> PathDataset:
    """Read a dataset written by :func:`save_text`.

    Blank lines are skipped; malformed tokens raise :class:`ValueError` with
    the offending line number.
    """
    paths: List[Tuple[int, ...]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                paths.append(tuple(int(tok) for tok in line.split()))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed path line: {line!r}") from exc
    return PathDataset(paths, name=name)


def dumps_binary(dataset: PathDataset) -> bytes:
    """Serialize *dataset* to a compact binary blob.

    Layout: magic, version byte, path count (u32), then for each path a
    varint length followed by varint vertex ids.
    """
    payload, _ = _VARINT.encode_runs(dataset, prefixed=True)
    return _HEADER.pack(_MAGIC, _VERSION, len(dataset)) + payload


def loads_binary(data: bytes, name: str = "dataset") -> PathDataset:
    """Restore a dataset from :func:`dumps_binary` output."""
    if data[:4] != _MAGIC:
        raise ValueError("not a repro path-dataset blob (bad magic)")
    if len(data) < _HEADER.size:
        raise TruncatedDataError(
            f"path-dataset header needs {_HEADER.size} bytes, blob has "
            f"{len(data)} (truncated at byte offset {len(data)})"
        )
    _, version, count = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"unsupported path-dataset version {version}")
    try:
        values = _VARINT.decode(data[_HEADER.size:])
    except CorruptDataError as exc:
        raise type(exc)(
            f"{exc}; the varint payload starts at byte offset {_HEADER.size}"
        ) from exc
    paths: List[Tuple[int, ...]] = []
    pos = 0
    for _ in range(count):
        if pos >= len(values):
            raise ValueError("truncated path-dataset blob")
        length = values[pos]
        pos += 1
        if pos + length > len(values):
            raise ValueError("truncated path inside dataset blob")
        paths.append(tuple(values[pos : pos + length]))
        pos += length
    if pos != len(values):
        raise ValueError("trailing garbage after last path")
    return PathDataset(paths, name=name)


def save_binary(dataset: PathDataset, path: Union[str, FsPath]) -> None:
    """Publish the binary form of *dataset* at *path*."""
    publish_file(str(path), dumps_binary(dataset))


def load_binary(path: Union[str, FsPath], name: str = "dataset") -> PathDataset:
    """Read a dataset written by :func:`save_binary`."""
    with open(path, "rb") as fh:
        return loads_binary(fh.read(), name=name)
