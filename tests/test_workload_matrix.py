"""Cross-matrix integration: every workload family × the OFFS modes.

A coarse but broad safety net: for each bundled workload (including the
adversarial ones) and each OFFS operating mode, the full fit → compress →
store → retrieve → serialize cycle must be lossless, and the compression
ratio must sit in the band the workload's structure implies.
"""

import pytest

from repro.core.config import OFFSConfig
from repro.core.offs import OFFSCodec
from repro.core.serialize import dumps_store, loads_store
from repro.core.store import CompressedPathStore
from repro.workloads.registry import make_dataset

WORKLOADS = ("alibaba", "rome", "porto", "sanfrancisco", "web", "collision", "noise")

MODES = {
    "default": OFFSConfig(iterations=4, sample_exponent=0),
    "fast": OFFSConfig(iterations=2, sample_exponent=0),
    "hybrid": OFFSConfig(iterations=3, sample_exponent=0, topdown_rounds=2),
}

#: CR sanity bands per workload (tiny preset, exhaustive training).
CR_BANDS = {
    "alibaba": (1.5, 9.0),
    "rome": (1.5, 9.0),
    "porto": (1.5, 9.0),
    "sanfrancisco": (1.5, 9.0),
    "web": (1.0, 6.0),
    "collision": (2.0, 9.0),
    "noise": (0.7, 1.2),
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_full_cycle(workload, mode):
    dataset = make_dataset(workload, "tiny")
    codec = OFFSCodec(MODES[mode])
    store = CompressedPathStore.from_codec(dataset, codec)

    # Losslessness across the whole archive.
    assert store.retrieve_all() == list(dataset)

    # Random access agrees.
    probe = len(dataset) // 3
    assert store.retrieve(probe) == dataset[probe]

    # Serialization survives.
    restored = loads_store(dumps_store(store))
    assert restored.retrieve(probe) == dataset[probe]

    # Ratio lands in the structural band (default mode only — the reduced
    # modes trade ratio deliberately).
    if mode == "default":
        low, high = CR_BANDS[workload]
        cr = store.compression_ratio()
        assert low <= cr <= high, f"{workload}: CR {cr:.2f} outside [{low}, {high}]"
