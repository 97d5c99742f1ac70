"""One function per paper artifact: Table III, Figures 4, 5 and 6, ablations.

Every function returns ``(rows, shape)``: *rows* is a printable table
(header first) and *shape* a dict of the scalar facts the paper's prose
claims about the artifact (who wins, by what factor, where the knee sits).
The bench files print the rows and assert on the shape; EXPERIMENTS.md
records both next to the paper's numbers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import (
    measure_codec,
    measure_decompression,
    measure_partial_decompression,
    time_rounds,
)
from repro.analysis.sizing import dataset_raw_bytes, tokens_total_bytes
from repro.analysis.stats import dataset_stats_table
from repro.baselines import Dlz4Codec, GFSCodec, RSSCodec
from repro.bench.harness import BenchConfig, DEFAULT_BENCH, default_codecs
from repro.core.config import MATCHER_BACKENDS
from repro.core.offs import OFFSCodec
from repro.core.store import CompressedPathStore
from repro.workloads.registry import DATASET_NAMES, make_dataset

Rows = List[Sequence]
Shape = Dict[str, float]


# ---------------------------------------------------------------------------
# Table III — dataset statistics
# ---------------------------------------------------------------------------

def exp_table3(config: BenchConfig = DEFAULT_BENCH) -> Tuple[Rows, Shape]:
    """Table III: statistics of the four dataset surrogates."""
    datasets = [make_dataset(name, config.size, config.seed) for name in DATASET_NAMES]
    rows = dataset_stats_table(datasets)
    stats = {ds.name: ds.stats() for ds in datasets}
    shape = {
        # The length profile orderings Table III exhibits.
        "rome_longest_avg": float(
            stats["rome"].avg_length == max(s.avg_length for s in stats.values())
        ),
        "alibaba_avg": stats["alibaba"].avg_length,
        "sanfrancisco_fewest_ids": float(
            stats["sanfrancisco"].id_number == min(s.id_number for s in stats.values())
        ),
    }
    return rows, shape


# ---------------------------------------------------------------------------
# Figure 4 — impacts of i and k
# ---------------------------------------------------------------------------

def exp_fig4_iterations(
    dataset_name: str = "alibaba",
    i_values: Sequence[int] = tuple(range(0, 10)),
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """Fig. 4 a–d: CR and CS as the iteration count ``i`` grows.

    Paper shape: CR rises rapidly for i ∈ [0, 3] (candidates are still
    growing toward δ), then gently; CS roughly halves from i=0 to i=4 and
    keeps sinking slowly.
    """
    dataset = make_dataset(dataset_name, config.size, config.seed)
    # Keep construction a visible share of the total cost, as it is in the
    # paper's setup; at scaled-down sizes the campaign's default k would
    # make construction vanish and flatten the CS curve artificially.
    k = min(config.sample_exponent, 2)
    rows: Rows = [("i", "CR", "CS (MB/s)")]
    crs: List[float] = []
    css: List[float] = []
    for i in i_values:
        codec = OFFSCodec(config.offs_config(iterations=i, sample_exponent=k))
        m = measure_codec(codec, dataset)
        crs.append(m.compression_ratio)
        css.append(m.compression_speed_mbps)
        rows.append((i, round(m.compression_ratio, 3), round(m.compression_speed_mbps, 3)))
    knee = min(3, len(crs) - 1)
    shape = {
        "cr_rise_to_knee": crs[knee] - crs[0],
        "cr_rise_after_knee": crs[-1] - crs[knee],
        "cs_peak_over_final": (max(css) / css[-1]) if css[-1] else 0.0,
        "cr_final": crs[-1],
    }
    return rows, shape


def exp_fig4_sampling(
    dataset_name: str = "alibaba",
    k_values: Sequence[int] = tuple(range(0, 10)),
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """Fig. 4 e–h: CR and CS as the sample exponent ``k`` grows.

    Paper shape: CR decays slowly while the sample is still representative,
    then sharply once it is not; CS rises steeply with k (table construction
    dominates at k=0) and then flattens (compression dominates).
    """
    dataset = make_dataset(dataset_name, config.size, config.seed)
    rows: Rows = [("k", "sampled paths", "CR", "CS (MB/s)")]
    crs: List[float] = []
    css: List[float] = []
    for k in k_values:
        codec = OFFSCodec(config.offs_config(sample_exponent=k))
        m = measure_codec(codec, dataset)
        crs.append(m.compression_ratio)
        css.append(m.compression_speed_mbps)
        sampled = max(1, len(dataset) // (1 << k))
        rows.append((k, sampled, round(m.compression_ratio, 3), round(m.compression_speed_mbps, 3)))
    mid = min(4, len(crs) - 1)
    shape = {
        "cr_loss_slow_regime": crs[0] - crs[mid],
        "cr_loss_fast_regime": crs[mid] - crs[-1],
        # Peak speed-up over k=0: past the representativeness cliff CS can
        # sink again ("it might suffer from more useless matches during
        # compression, which affects CS" — the paper's own caveat), so the
        # gain is measured at the best k, not the last.
        "cs_gain": max(css) / css[0] if css[0] else 0.0,
        "cr_at_default": crs[mid],
    }
    return rows, shape


# ---------------------------------------------------------------------------
# Figure 5 — comparison with baselines
# ---------------------------------------------------------------------------

def exp_fig5_comparison(
    dataset_names: Sequence[str] = DATASET_NAMES,
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """Fig. 5: CR (a) and CS (b) of OFFS/OFFS* vs Dlz4 vs RSS vs GFS.

    Paper shape: OFFS has the best CR on every dataset (≈ 3× Dlz4 and
    ≈ 1.5× the naive DICTs on their hardware), GFS ≤ RSS on average
    (match collisions), OFFS has the best CS, naive DICTs the worst, and
    OFFS* trades a small CR loss for extra construction speed.
    """
    rows: Rows = [("dataset", "codec", "CR", "CS (MB/s)")]
    ratios: Dict[str, List[float]] = {}
    speeds: Dict[str, List[float]] = {}
    for name in dataset_names:
        dataset = make_dataset(name, config.size, config.seed)
        for codec in default_codecs(config):
            m = measure_codec(codec, dataset)
            rows.append(
                (name, codec.name, round(m.compression_ratio, 3), round(m.compression_speed_mbps, 3))
            )
            ratios.setdefault(codec.name, []).append(m.compression_ratio)
            speeds.setdefault(codec.name, []).append(m.compression_speed_mbps)

    def avg(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    shape = {
        "offs_cr_avg": avg(ratios["OFFS"]),
        "offs_over_dlz4_cr": avg(ratios["OFFS"]) / avg(ratios["Dlz4"]),
        "offs_over_rss_cr": avg(ratios["OFFS"]) / avg(ratios["RSS"]),
        "offs_over_gfs_cr": avg(ratios["OFFS"]) / avg(ratios["GFS"]),
        "offs_star_cr_gap": avg(ratios["OFFS"]) - avg(ratios["OFFS*"]),
        "offs_over_dlz4_cs": avg(speeds["OFFS"]) / avg(speeds["Dlz4"]),
        "offs_over_naive_cs": avg(speeds["OFFS"])
        / avg([*speeds["RSS"], *speeds["GFS"]]),
        "gfs_minus_rss_cr": avg(ratios["GFS"]) - avg(ratios["RSS"]),
    }
    return rows, shape


# ---------------------------------------------------------------------------
# Figure 6 — decompression, partial decompression, scalability
# ---------------------------------------------------------------------------

def exp_fig6_decompression(
    dataset_names: Sequence[str] = DATASET_NAMES,
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """Fig. 6a: full-archive decompression speed per codec.

    Paper shape: all DICT methods decompress at essentially the same speed
    (same Algorithm 1), competitive with Dlz4.
    """
    rows: Rows = [("dataset", "codec", "DS (MB/s)")]
    ds_speeds: Dict[str, List[float]] = {}
    for name in dataset_names:
        dataset = make_dataset(name, config.size, config.seed)
        raw = dataset_raw_bytes(dataset)
        for codec in default_codecs(config):
            codec.fit(dataset)
            tokens = codec.compress_dataset(dataset)
            speed = measure_decompression(codec, tokens, raw)
            rows.append((name, codec.name, round(speed, 3)))
            ds_speeds.setdefault(codec.name, []).append(speed)

    def avg(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    dict_speeds = [avg(ds_speeds[n]) for n in ("OFFS", "OFFS*", "RSS", "GFS")]
    shape = {
        "offs_ds_avg": avg(ds_speeds["OFFS"]),
        "dict_ds_spread": (max(dict_speeds) - min(dict_speeds)) / max(dict_speeds),
        "offs_over_dlz4_ds": avg(ds_speeds["OFFS"]) / avg(ds_speeds["Dlz4"]),
    }
    return rows, shape


def exp_fig6_partial(
    dataset_name: str = "alibaba",
    fractions: Sequence[float] = (0.01, 0.05, 0.10, 0.25, 0.50, 1.0),
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """Fig. 6b: partial decompression speed vs retrieved fraction.

    Paper shape: PDS stays within the same order of magnitude as full DS all
    the way down to 1% retrieval — the per-path granularity at work.
    """
    dataset = make_dataset(dataset_name, config.size, config.seed)
    codec = OFFSCodec(config.offs_config()).fit(dataset)
    store = CompressedPathStore.from_corpus(dataset, codec.table)
    rows: Rows = [("fraction", "PDS (MB/s)", "retrieved MB")]
    speeds: List[float] = []
    for fraction in fractions:
        mbps, out_bytes = measure_partial_decompression(store, fraction, seed=config.seed)
        speeds.append(mbps)
        rows.append((fraction, round(mbps, 3), round(out_bytes / 1e6, 3)))
    shape = {
        "pds_at_1pct_over_full": speeds[0] / speeds[-1] if speeds[-1] else 0.0,
        "pds_min": min(speeds),
    }
    return rows, shape


def exp_fig6_scalability(
    dataset_name: str = "alibaba",
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """Fig. 6c: CR when the table is built from a fraction of the paths.

    Paper shape: CR loses < 15% when constructed from a 20% sample and
    stays ≥ 2.5× the Dlz4 reference throughout.
    """
    dataset = make_dataset(dataset_name, config.size, config.seed)
    dlz4 = measure_codec(Dlz4Codec(sample_exponent=config.sample_exponent), dataset)
    # λ is a property of the archive being compressed, not of how many paths
    # had arrived when the table was trained: pin it to the full-data value
    # so the sweep varies exactly one thing (sample representativeness).
    full_lambda = config.offs_config().lambda_for(dataset.node_count())
    rows: Rows = [("table sample", "CR", "CR vs Dlz4")]
    crs: List[float] = []
    base_id = dataset.max_vertex_id() + 1
    for fraction in fractions:
        sample = dataset.sample_fraction(fraction, seed=config.seed)
        # Train on the arrived fraction directly (k=0): the figure studies
        # how representative the *fraction* is, so compounding it with the
        # builder's own 1-in-2^k subsampling would measure two things.
        codec = OFFSCodec(
            config.offs_config(sample_exponent=0, capacity=full_lambda),
            base_id=base_id,
        )
        codec.fit(sample)
        tokens = [codec.compress_path(p) for p in dataset]
        raw = dataset_raw_bytes(dataset)
        cr = raw / tokens_total_bytes(codec, tokens)
        crs.append(cr)
        rows.append((f"{fraction:.0%}", round(cr, 3), round(cr / dlz4.compression_ratio, 2)))
    shape = {
        "relative_loss_at_20pct": (crs[-1] - crs[0]) / crs[-1] if crs[-1] else 1.0,
        "cr_20pct_over_dlz4": crs[0] / dlz4.compression_ratio,
    }
    return rows, shape


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md A1–A3)
# ---------------------------------------------------------------------------

def exp_ablation_matchers(
    dataset_name: str = "alibaba",
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """A1: matcher backends — flat hash (Alg. 6) vs two-level hash (Alg. 7).

    Both backends produce identical tables and tokens (checked); they differ
    in probe cost (Lemma 3), reported here from the backends' own
    :class:`~repro.core.probestats.ProbeStats` counters over a fixed batch.
    """
    from repro.core.compressor import compress_dataset
    from repro.core.matcher import static_matcher_from_table

    dataset = make_dataset(dataset_name, config.size, config.seed)
    rows: Rows = [
        ("matcher", "CR", "fit (s)", "compress (s)", "probes", "hashed vertices")
    ]
    crs: List[float] = []
    token_sets = []
    probe_batch = list(dataset.head(200))
    for backend in MATCHER_BACKENDS:
        codec = OFFSCodec(config.offs_config(matcher=backend))
        m = measure_codec(codec, dataset)
        crs.append(m.compression_ratio)
        token_sets.append(tuple(codec.compress_dataset(dataset.head(50))))
        # Probe-cost accounting over one batch: zero the backend's counters
        # with the public reset() (never by re-instantiating the stats
        # object), compress the batch, read the totals.
        matcher = static_matcher_from_table(codec.table, backend)
        matcher.stats.reset()
        compress_dataset(probe_batch, codec.table, matcher)
        rows.append(
            (
                backend,
                round(m.compression_ratio, 3),
                round(m.fit_seconds, 3),
                round(m.compress_seconds, 3),
                matcher.stats.probes,
                matcher.stats.hashed_vertices,
            )
        )
    shape = {
        "results_identical": float(len(set(token_sets)) == 1 and len(set(round(c, 9) for c in crs)) == 1),
    }
    return rows, shape


def exp_flat_batch(
    dataset_name: str = "alibaba",
    config: BenchConfig = DEFAULT_BENCH,
    rounds: int = 3,
) -> Tuple[Rows, Shape]:
    """A4: the flat-corpus batch pipeline vs the per-path loop.

    Two rows: the seed pipeline (per-path loop over tuples, flat hash
    matcher) against :func:`~repro.core.compressor.compress_paths_flat`,
    which runs the vectorized :class:`~repro.core.rollhash.FlatBatchKernel`.
    Output is byte-identical (checked); the two alternate for *rounds*
    rounds and each reports its fastest.
    """
    from repro.core.compressor import compress_dataset, compress_paths_flat
    from repro.core.matcher import static_matcher_from_table

    dataset = make_dataset(dataset_name, config.size, config.seed)
    codec = OFFSCodec(config.offs_config())
    codec.fit(dataset)
    table = codec.table
    paths = list(dataset)
    corpus = dataset.to_flat()
    total_symbols = corpus.total_symbols

    matcher = static_matcher_from_table(table)
    baseline, flat = time_rounds([
        lambda: compress_dataset(paths, table, matcher),
        lambda: compress_paths_flat(corpus, table, matcher),
    ], rounds)
    identical = flat.result == baseline.result
    baseline_seconds, seconds = baseline.min, flat.min
    speedup = baseline_seconds / seconds if seconds else float("inf")

    rows: Rows = [("pipeline", "compress (s)", "Msym/s", "speedup", "identical")]
    rows.append(
        (
            "per-path loop",
            round(baseline_seconds, 4),
            round(total_symbols / baseline_seconds / 1e6, 3),
            1.0,
            1,
        )
    )
    rows.append(
        (
            "flat batch",
            round(seconds, 4),
            round(total_symbols / seconds / 1e6, 3),
            round(speedup, 2),
            int(identical),
        )
    )
    shape: Shape = {"flat_identical": float(identical), "flat_speedup": speedup}
    return rows, shape


def exp_ablation_measure(
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """A2: practical vs gross frequency on the collision-heavy workload.

    The Example 1 effect in vivo: with a small capacity, GFS fills the table
    with overlapping fragments of the hot subpath while OFFS keeps
    complementary entries, so OFFS wins CR decisively and GFS ≲ RSS.
    """
    dataset = make_dataset("collision", config.size, config.seed)
    capacity = 24  # tight capacity is what makes collisions costly
    offs = measure_codec(
        OFFSCodec(config.offs_config(sample_exponent=0, capacity=capacity)), dataset
    )
    gfs = measure_codec(GFSCodec(capacity=capacity, sample_exponent=0), dataset)
    rss = measure_codec(RSSCodec(capacity=capacity, sample_exponent=0, seed=config.seed), dataset)
    rows: Rows = [
        ("codec", "CR"),
        ("OFFS", round(offs.compression_ratio, 3)),
        ("GFS", round(gfs.compression_ratio, 3)),
        ("RSS", round(rss.compression_ratio, 3)),
    ]
    shape = {
        "offs_over_gfs": offs.compression_ratio / gfs.compression_ratio,
        "gfs_minus_rss": gfs.compression_ratio - rss.compression_ratio,
    }
    return rows, shape


def exp_ablation_params(
    dataset_name: str = "alibaba",
    config: BenchConfig = DEFAULT_BENCH,
) -> Tuple[Rows, Shape]:
    """A3: δ and β sweeps around the deployed defaults (δ=8, β=500).

    Bigger δ lifts the CR ceiling but inflates probe cost; β controls the
    table-size/coverage balance with a CR optimum in the middle.
    """
    dataset = make_dataset(dataset_name, config.size, config.seed)
    rows: Rows = [("param", "value", "CR", "CS (MB/s)")]
    crs_delta: List[float] = []
    for delta in (4, 8, 12):
        codec = OFFSCodec(config.offs_config(delta=delta, alpha=min(5, delta - 1)))
        m = measure_codec(codec, dataset)
        crs_delta.append(m.compression_ratio)
        rows.append(("delta", delta, round(m.compression_ratio, 3), round(m.compression_speed_mbps, 3)))
    crs_beta: List[float] = []
    for beta in (125, 500, 2000):
        codec = OFFSCodec(config.offs_config(beta=beta))
        m = measure_codec(codec, dataset)
        crs_beta.append(m.compression_ratio)
        rows.append(("beta", beta, round(m.compression_ratio, 3), round(m.compression_speed_mbps, 3)))
    shape = {
        "delta8_over_delta4": crs_delta[1] / crs_delta[0] if crs_delta[0] else 0.0,
        "cr_beta_default": crs_beta[1],
    }
    return rows, shape
