"""Shared fixtures for the test suite.

Datasets are deliberately tiny — correctness tests should not wait on
workload generation — and cached per session.  Anything timing-related lives
in ``benchmarks/``, not here.
"""

from __future__ import annotations

import builtins
import errno
import gc
import os

import pytest

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.paths.dataset import PathDataset
from repro.workloads.registry import make_dataset


class _FullDiskWriter:
    """A file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, "injected: no space left on device")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture()
def fill_disk(monkeypatch):
    """Call the returned function to make every file opened for writing
    fail its writes with ENOSPC; ``monkeypatch.undo()`` frees the disk."""
    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDiskWriter(fh) if "w" in mode else fh

    return lambda: monkeypatch.setattr(builtins, "open", full_disk_open)


def open_fd_count() -> int:
    """The number of open file descriptors in this process, or ``-1`` when
    the platform exposes no fd table (neither /proc/self/fd nor /dev/fd).

    The runtime twin of lint rule R008: the serve/sharded suites snapshot
    this before and after each module to prove mmaps, sockets and store
    files are all released.
    """
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            return len(os.listdir(fd_dir))
        except OSError:
            continue
    return -1


def make_fd_leak_guard(slack: int = 1):
    """A module-scoped autouse fixture asserting no descriptor leaks.

    *slack* absorbs interpreter-internal descriptors that legitimately
    appear once per process (e.g. the multiprocessing resource tracker's
    pipe on first use — we pre-start it, but a platform without fork still
    lazily opens urandom-style fds).
    """

    @pytest.fixture(scope="module", autouse=True)
    def _fd_leak_guard():
        try:  # pre-start the one-pipe-per-process tracker so it is not
            from multiprocessing import resource_tracker  # counted as a leak

            resource_tracker.ensure_running()
        except (ImportError, OSError):  # pragma: no cover - non-POSIX
            pass
        gc.collect()
        before = open_fd_count()
        yield
        gc.collect()
        after = open_fd_count()
        if before < 0 or after < 0:
            pytest.skip("platform exposes no fd table")
        assert after <= before + slack, (
            f"descriptor leak: {before} open fds before this module, "
            f"{after} after (slack={slack})"
        )

    return _fd_leak_guard


@pytest.fixture(autouse=True)
def _no_stray_temp_files(request):
    """Fail any test that requested ``tmp_path`` and left a ``*.tmp`` file there.

    The runtime twin of the one-publish-path rule: every file the library
    writes goes to a temp file that is renamed onto its destination, so a
    leftover temp file is a write that failed without cleaning up.
    """
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    stray = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.tmp"))
    assert not stray, f"stray temp files left in tmp_path: {stray}"


@pytest.fixture()
def simple_dataset() -> PathDataset:
    """A small hand-written dataset with an obvious hot subpath.

    Paths repeat (as real transaction logs do): OFFS only keeps candidates
    whose *practical* frequency is at least 2, so a dataset of entirely
    unique paths legitimately yields an empty table.
    """
    hot = [10, 11, 12, 13]
    return PathDataset(
        [
            [1, *hot, 2],
            [1, *hot, 2],
            [1, *hot, 2],
            [3, *hot, 4],
            [3, *hot, 4],
            [5, *hot, 6],
            [1, *hot, 6],
            [7, 8, 9],
            [7, 8, 9],
            [2, 7, 8, 9],
        ],
        name="simple",
    )


@pytest.fixture()
def repeated_path_dataset() -> PathDataset:
    """Many copies of one path — the fully compressible extreme."""
    return PathDataset([[1, 2, 3, 4, 5, 6]] * 10, name="repeat")


@pytest.fixture(scope="session")
def tiny_alibaba() -> PathDataset:
    """The alibaba surrogate at test scale (cached for the whole session)."""
    return make_dataset("alibaba", "tiny")


@pytest.fixture(scope="session")
def tiny_sanfrancisco() -> PathDataset:
    """The sanfrancisco surrogate at test scale."""
    return make_dataset("sanfrancisco", "tiny")


@pytest.fixture()
def exhaustive_config() -> OFFSConfig:
    """OFFS config for tiny data: no sampling, ample iterations."""
    return OFFSConfig(iterations=4, sample_exponent=0)


@pytest.fixture()
def fitted_codec(tiny_alibaba, exhaustive_config) -> OFFSCodec:
    """An OFFS codec already fitted on the tiny alibaba surrogate."""
    return OFFSCodec(exhaustive_config).fit(tiny_alibaba)
