"""Ablation run-matrix harness — which components earn their keep, per workload.

The system has more knobs than anyone can reason about by hand: table
capacity, construction iterations and sampling, top-down refinement, store
format v1/v2, the expansion cache, sharding.
This module switches each one off (or swaps its value) against a fixed
baseline, measures every cell with the Section VI-B metrics (CR / CS / DS /
PDS, each timing a median with its spread over N rounds), and ranks the
components by the marginal metric delta of toggling them — the aumai-ablation pattern:
generate the run matrix, give every cell a stable run id, turn the measured
numbers into a per-component importance report.

The three layers, each usable alone:

* **Knob registry** — :data:`KNOBS`, a tuple of declarative :class:`Knob`
  entries.  Each names its component, its non-baseline values, and *how to
  apply it*: a dotted target (``config.capacity`` mutates the
  :class:`~repro.core.config.OFFSConfig`, ``spec.store_format`` mutates the
  surrounding pipeline :class:`RunSpec`).
* **Run matrix** — :func:`generate_matrix` expands workloads x knobs into
  :class:`Cell` entries with deterministic run ids
  (``<workload>-<knob>=<value>``; ``<workload>-baseline`` anchors each
  workload).  Ids are a pure function of the registry — independent of input
  ordering, hash seeds and Python version, which makes them usable as resume
  keys and artifact names.
* **Executor + report** — :func:`run_matrix` measures cells in-process, one
  at a time (every cell round-trip-verifies its decode against the original
  paths before any number is reported), resumes from a partial-results file
  keyed by run id, and :func:`build_report` emits the
  ``BENCH_ablation.json`` payload with a ranked importance table for human
  readers; :func:`repro.core.autotune.autotune` reads only its CR deltas.

Cell timings are machine numbers; run ids, matrix shape, verification flags
and byte sizes are deterministic.  A timing delta inside the combined spread
of the two cells reads as 0.0, so noise cannot rank a component.  The importance *ranking* is deterministic
for tied scores (ties break on component then knob name), which keeps the
report diffable across runs of the same machine.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.metrics import Timing, relative_delta, time_rounds
from repro.analysis.sizing import dataset_raw_bytes
from repro.core.config import OFFSConfig
from repro.core.errors import InvalidInputError
from repro.core.serialize import publish_file
from repro.obs import catalog
from repro.obs.runtime import active_span, active_timer, get_active

#: Bumped whenever the report or partial-results layout changes shape;
#: consumers (autotune, the nightly diff tooling) refuse unknown versions.
SCHEMA_VERSION = 3

#: The default workload pair the nightly matrix covers: the cloud-trace
#: surrogate and the road-network surrogate stress opposite ends of the
#: overlap spectrum, so a component that matters on neither is safe to doubt.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("alibaba", "rome")

#: Construction sample exponent per size tier — the same scaled equivalents
#: of the paper's k=7 that ``repro.bench.runner`` uses.
_SIZE_SAMPLE_EXPONENT = {"tiny": 0, "small": 2, "medium": 4}

#: Metrics the importance score reads, as (report key, pretty name, spread
#: key).  CR is byte-exact, so it has no spread key.
_HEADLINE_METRICS = (
    ("compression_ratio", "CR", None),
    ("compression_speed_mbps", "CS", "compression_speed_spread_mbps"),
    ("decompression_speed_mbps", "DS", "decompression_speed_spread_mbps"),
    ("partial_decompression_speed_mbps", "PDS", "partial_decompression_speed_spread_mbps"),
)


# -- the pipeline a cell runs ----------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """Everything one ablation cell needs to build, compress and decode.

    ``config`` carries the :class:`OFFSConfig` knobs; the remaining fields
    are pipeline choices that live outside the config object — which store
    format serves the decode measurements, whether the expansion cache is
    allowed to persist between timed rounds, and whether the archive is
    sharded.
    """

    workload: str
    size: str = "small"
    seed: int = 0
    config: OFFSConfig = field(default_factory=OFFSConfig)
    store_format: str = "v1"
    expansion_cache: bool = True
    shards: int = 0


def baseline_spec(workload: str, size: str = "small", seed: int = 0) -> RunSpec:
    """The anchor cell every knob's delta is measured against.

    The baseline: the default config at the size tier's scaled sample
    exponent, v1 in-memory store, expansion cache on, monolithic.
    """
    if size not in _SIZE_SAMPLE_EXPONENT:
        raise InvalidInputError(
            f"unknown size {size!r}; known: {sorted(_SIZE_SAMPLE_EXPONENT)}"
        )
    config = OFFSConfig(sample_exponent=_SIZE_SAMPLE_EXPONENT[size], seed=seed)
    return RunSpec(workload=workload, size=size, seed=seed, config=config)


# -- the knob registry -----------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One ablatable component: its values and how to apply them.

    :param name: run-id key (``<workload>-<name>=<value>``).
    :param component: human-readable component the knob toggles; the
        importance table ranks components, so several knobs may share one.
    :param target: dotted setting the value lands on — ``config.<field>``
        for :class:`OFFSConfig` fields, ``spec.<field>`` for :class:`RunSpec`
        pipeline fields.
    :param values: the non-baseline values to sweep (the baseline cell
        supplies the default).
    :param summary: one line for the report and docs.
    """

    name: str
    component: str
    target: str
    values: Tuple[object, ...]
    summary: str = ""


#: The registry.  Order is meaningful: it fixes the report's ``knobs`` list,
#: so append — don't reorder.
KNOBS: Tuple[Knob, ...] = (
    Knob(
        name="iterations",
        component="table construction",
        target="config.iterations",
        values=(0, 2),
        summary="0 switches construction off entirely (identity archive); "
        "2 is the paper's fast mode",
    ),
    Knob(
        name="sample_exponent",
        component="construction sampling",
        target="config.sample_exponent",
        values=(0, 6),
        summary="0 trains on every path, 6 on one in 64",
    ),
    Knob(
        name="capacity",
        component="table capacity",
        target="config.capacity",
        values=(64, 1024),
        summary="overrides the lambda = nodes/beta candidate budget",
    ),
    Knob(
        name="topdown_rounds",
        component="top-down refinement",
        target="config.topdown_rounds",
        values=(1,),
        summary="one hybrid top-down pass after the bottom-up iterations",
    ),
    Knob(
        name="store_format",
        component="store format",
        target="spec.store_format",
        values=("v2",),
        summary="serialize to RPC2 and decode through the mmap store "
        "instead of the in-memory v1 blob",
    ),
    Knob(
        name="expansion_cache",
        component="expansion cache",
        target="spec.expansion_cache",
        values=(False,),
        summary="invalidate the memoized supernode expansions before every "
        "timed decode round (the cold path, every time)",
    ),
    Knob(
        name="shards",
        component="sharded store",
        target="spec.shards",
        values=(2,),
        summary="partition into RPC2 shards under an RPSM manifest and "
        "decode through the one-table sharded reader",
    ),
)


def knob_by_name(name: str, knobs: Sequence[Knob] = KNOBS) -> Knob:
    """Look a knob up by run-id key."""
    for knob in knobs:
        if knob.name == name:
            return knob
    raise InvalidInputError(
        f"unknown knob {name!r}; registered: {[k.name for k in knobs]}"
    )


def format_value(value: object) -> str:
    """Canonical run-id spelling of a knob value (stable across versions).

    Booleans become ``on``/``off``, ``None`` becomes ``none``; everything
    else must already be an int or str — floats are rejected because their
    repr is a portability hazard in an id that must never drift.
    """
    if isinstance(value, bool):
        return "on" if value else "off"
    if value is None:
        return "none"
    if isinstance(value, (int, str)):
        return str(value)
    raise InvalidInputError(f"unsupported knob value type: {value!r}")


def _apply_settings(spec: RunSpec, settings: Iterable[Tuple[str, object]]) -> RunSpec:
    """Apply ``(target, value)`` pairs to *spec*, validating each target."""
    for target, value in settings:
        scope, _, fieldname = target.partition(".")
        if scope == "config" and fieldname in OFFSConfig.__dataclass_fields__:
            spec = replace(spec, config=spec.config.with_(**{fieldname: value}))
        elif scope == "spec" and fieldname in RunSpec.__dataclass_fields__:
            spec = replace(spec, **{fieldname: value})
        else:
            raise InvalidInputError(f"unknown knob target {target!r}")
    return spec


# -- the run matrix --------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One run of the matrix: a stable id plus the settings it applies."""

    run_id: str
    workload: str
    knob: Optional[str]  # None for the baseline anchor
    component: str
    value_label: str
    settings: Tuple[Tuple[str, object], ...]

    def spec(self, size: str = "small", seed: int = 0) -> RunSpec:
        """The fully-applied :class:`RunSpec` this cell measures."""
        return _apply_settings(baseline_spec(self.workload, size, seed), self.settings)


def generate_matrix(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    knobs: Sequence[Knob] = KNOBS,
) -> List[Cell]:
    """Expand *workloads* x *knobs* into the sorted, deduplicated cell list.

    The off-by-one-component matrix: a baseline plus one cell per knob
    value.  Cells come back sorted by run id — input ordering, set
    iteration and hash seeds cannot influence the output, as the stability
    tests assert.
    """
    cells: Dict[str, Cell] = {}
    for workload in sorted(set(workloads)):
        anchor = Cell(
            run_id=f"{workload}-baseline",
            workload=workload,
            knob=None,
            component="baseline",
            value_label="baseline",
            settings=(),
        )
        cells[anchor.run_id] = anchor
        for knob in knobs:
            for value in knob.values:
                label = format_value(value)
                cell = Cell(
                    run_id=f"{workload}-{knob.name}={label}",
                    workload=workload,
                    knob=knob.name,
                    component=knob.component,
                    value_label=label,
                    settings=((knob.target, value),),
                )
                cells[cell.run_id] = cell
    return [cells[run_id] for run_id in sorted(cells)]


# -- measuring one cell ----------------------------------------------------------


def _invalidate_expansions(store: object) -> None:
    """Force the cold decode path where the store exposes its table."""
    table = getattr(store, "table", None)
    if table is not None:
        table.invalidate_expansions()


def measure_cell(spec: RunSpec, rounds: int = 2) -> Dict[str, object]:
    """Run one cell's full pipeline and return its metrics dict.

    Fit the table and compress (timed together over *rounds* — construction
    cost is part of CS, the paper's Exp-1 shape), serialize per the spec's
    store format, then decode through that format's store and retrieve a
    seeded 10% sample for PDS, both over *rounds*.  Each speed is the
    median round's, with the spread across rounds beside it.  The decode
    output is verified path-for-path against the originals **before** any
    timing is trusted; a lossy cell raises instead of reporting.
    """
    import tempfile

    from repro.core.compressor import compress_paths_flat
    from repro.core.offs import OFFSCodec
    from repro.core.store import CompressedPathStore
    from repro.workloads.registry import make_dataset

    config = spec.config
    dataset = make_dataset(spec.workload, spec.size, spec.seed)
    paths = [tuple(p) for p in dataset]
    corpus = dataset.to_flat()
    raw_bytes = dataset_raw_bytes(paths)

    def fit_and_compress() -> Tuple[object, List[Tuple[int, ...]]]:
        table = OFFSCodec(config).fit(corpus).table
        return table, compress_paths_flat(corpus, table)

    [compress] = time_rounds([fit_and_compress], rounds)
    table, tokens = compress.result
    store = CompressedPathStore.from_tokens(table, tokens)

    def _timed_decode(reader: object) -> Tuple[bool, Timing, Timing, int]:
        """(verified, full decode, partial decode, sample bytes) for one store."""
        restored = reader.retrieve_all()
        verified = [tuple(p) for p in restored] == paths
        count = max(1, min(len(paths) // 10, 256))
        sample_ids = sorted(random.Random(spec.seed).sample(range(len(paths)), count))
        sample_bytes = dataset_raw_bytes([paths[i] for i in sample_ids])

        def full_decode() -> object:
            if not spec.expansion_cache:
                _invalidate_expansions(reader)
            return reader.retrieve_all()

        def partial_decode() -> object:
            if not spec.expansion_cache:
                _invalidate_expansions(reader)
            return [reader.retrieve(i) for i in sample_ids]

        full, partial = time_rounds([full_decode, partial_decode], rounds)
        return verified, full, partial, sample_bytes

    if spec.shards > 0:
        from repro.core.sharded import ShardedPathStore, build_sharded_store

        with tempfile.TemporaryDirectory(prefix="ablation-shards-") as tmp:
            manifest = os.path.join(tmp, "store.rpsm")
            build_sharded_store(corpus, table, manifest, shards=spec.shards)
            with ShardedPathStore.open(manifest) as sharded:
                compressed_bytes = sharded.mapped_bytes
                verified, full, partial, sample_bytes = _timed_decode(sharded)
    elif spec.store_format == "v2":
        from repro.core.mapped import MappedPathStore
        from repro.core.serialize import dumps_store_v2

        blob = dumps_store_v2(store)
        compressed_bytes = len(blob)
        fd, v2_path = tempfile.mkstemp(suffix=".rpc2")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            with MappedPathStore.open(v2_path) as mapped:
                verified, full, partial, sample_bytes = _timed_decode(mapped)
        finally:
            os.unlink(v2_path)
    elif spec.store_format == "v1":
        from repro.core.serialize import dumps_store

        compressed_bytes = len(dumps_store(store))
        verified, full, partial, sample_bytes = _timed_decode(store)
    else:
        raise InvalidInputError(f"unknown store format {spec.store_format!r}")

    if not verified:
        raise AssertionError(
            f"{spec.workload}: lossy round-trip under {spec!r} — refusing to "
            "report metrics for a corrupt cell"
        )

    speeds: Dict[str, object] = {}
    for key, timing, amount in (
        ("compression_speed", compress, raw_bytes),
        ("decompression_speed", full, raw_bytes),
        ("partial_decompression_speed", partial, sample_bytes),
    ):
        median, spread = timing.rate(amount / 1_000_000.0)
        speeds[f"{key}_mbps"] = round(median, 4)
        speeds[f"{key}_spread_mbps"] = round(spread, 4)
    return {
        "raw_bytes": raw_bytes,
        "compressed_bytes": compressed_bytes,
        "table_entries": len(table),
        "paths": len(paths),
        "verified": True,
        "compression_ratio": round(raw_bytes / compressed_bytes, 4)
        if compressed_bytes
        else 0.0,
        **speeds,
        "compress_seconds": round(compress.median, 4),
        "decompress_seconds": round(full.median, 4),
    }


# -- the executor ----------------------------------------------------------------


def _load_partial(
    path: Optional[str], campaign: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Completed results from a resumable partial file, or ``{}``.

    A partial whose *campaign* header (schema version, size tier, seed,
    round count) differs is ignored wholesale — resuming across
    incompatible campaigns would splice unrelated measurements under
    matching run ids.
    """
    if not path or not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if any(data.get(key) != value for key, value in campaign.items()):
        return {}
    results = data.get("results", {})
    return {
        run_id: result
        for run_id, result in results.items()
        if result.get("verified") is True
    }


def _write_partial(
    path: str, campaign: Dict[str, object], results: Dict[str, Dict[str, object]]
) -> None:
    """Atomically persist *results* keyed by run id (crash-safe resume)."""
    text = json.dumps({**campaign, "results": results}, indent=2, sort_keys=True)
    publish_file(path, text.encode("utf-8"))


def run_matrix(
    cells: Sequence[Cell],
    size: str = "small",
    seed: int = 0,
    rounds: int = 2,
    partial_path: Optional[str] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, object]]:
    """Measure every cell in-process, one at a time, resuming past completed
    run ids.

    :param partial_path: JSON file of completed results; read at start
        (matching cells are skipped and counted on
        ``ablation.cells_skipped``) and rewritten after every completion.
    :returns: run id -> result dict for *all* cells, resumed and fresh.
    """
    say = echo or (lambda message: None)
    campaign = {
        "schema_version": SCHEMA_VERSION,
        "size": size,
        "seed": seed,
        "rounds": rounds,
    }
    results = _load_partial(partial_path, campaign)
    completed = {r: results[r] for r in results if any(c.run_id == r for c in cells)}
    pending = [cell for cell in cells if cell.run_id not in completed]
    obs = get_active()
    if obs is not None and len(completed):
        obs.registry.counter(catalog.ABLATION_CELLS_SKIPPED).inc(len(completed))
    for run_id in sorted(completed):
        say(f"skip {run_id} (resumed)")

    with active_timer(catalog.ABLATION_SECONDS):
        for cell in pending:
            with active_span(catalog.SPAN_ABLATION_CELL, run_id=cell.run_id):
                with active_timer(catalog.ABLATION_CELL_SECONDS):
                    result = measure_cell(cell.spec(size, seed), rounds=rounds)
            result.update(
                run_id=cell.run_id,
                workload=cell.workload,
                knob=cell.knob,
                component=cell.component,
                value=cell.value_label,
            )
            completed[cell.run_id] = result
            if obs is not None:
                obs.registry.counter(catalog.ABLATION_CELLS).inc()
            if partial_path:
                _write_partial(partial_path, campaign, completed)
            say(
                f"done {cell.run_id}: CR={result['compression_ratio']} "
                f"CS={result['compression_speed_mbps']}MB/s "
                f"DS={result['decompression_speed_mbps']}MB/s"
            )
    return {cell.run_id: completed[cell.run_id] for cell in cells}


# -- the importance report -------------------------------------------------------


def importance_table(
    results: Dict[str, Dict[str, object]],
) -> List[Dict[str, object]]:
    """Rank each workload's knobs by the marginal effect of toggling them.

    A knob's importance is the largest relative headline-metric delta
    (|ΔCR|, |ΔCS|, |ΔDS|, |ΔPDS|, each relative to the workload's baseline
    cell) over all its cells, rounded to 4 decimals.  A timing delta within
    the two cells' combined spread reads as 0.0 (the noise floor).  Rank is per workload;
    exact ties break on component name then knob name, so the ordering is a
    pure function of the scores — re-running on identical numbers can never
    shuffle the table.
    """
    baselines = {
        r["workload"]: r for r in results.values() if r.get("knob") is None
    }
    grouped: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
    for result in results.values():
        knob = result.get("knob")
        if knob is None:
            continue  # baselines anchor the deltas
        grouped.setdefault((result["workload"], str(knob)), []).append(result)

    entries: List[Dict[str, object]] = []
    for (workload, knob), cells in sorted(grouped.items()):
        base = baselines.get(workload)
        if base is None:
            raise InvalidInputError(
                f"no baseline cell for workload {workload!r}; importance "
                "deltas are meaningless without the anchor"
            )
        per_value: Dict[str, Dict[str, float]] = {}
        importance = 0.0
        best_value, best_cr = None, float("-inf")
        for cell in sorted(cells, key=lambda c: str(c["value"])):
            deltas: Dict[str, float] = {}
            for key, pretty, spread_key in _HEADLINE_METRICS:
                delta = relative_delta(
                    float(cell[key]),
                    float(base[key]),
                    float(cell.get(spread_key, 0.0)),
                    float(base.get(spread_key, 0.0)),
                )
                deltas[f"delta_{pretty.lower()}"] = round(delta, 4)
            per_value[str(cell["value"])] = deltas
            importance = max(importance, max(abs(d) for d in deltas.values()))
            if float(cell["compression_ratio"]) > best_cr:
                best_cr = float(cell["compression_ratio"])
                best_value = str(cell["value"])
        entries.append(
            {
                "workload": workload,
                "knob": knob,
                "component": cells[0]["component"],
                "importance": round(importance, 4),
                "best_value": best_value,
                "best_cr": round(best_cr, 4),
                "baseline_cr": round(float(base["compression_ratio"]), 4),
                "values": per_value,
            }
        )

    entries.sort(
        key=lambda e: (
            e["workload"],
            -e["importance"],
            e["component"],
            e["knob"],
        )
    )
    rank = 0
    last_workload = None
    for entry in entries:
        rank = rank + 1 if entry["workload"] == last_workload else 1
        last_workload = entry["workload"]
        entry["rank"] = rank
    return entries


def build_report(
    results: Dict[str, Dict[str, object]],
    workloads: Sequence[str],
    size: str,
    seed: int,
    rounds: int,
    knobs: Sequence[Knob] = KNOBS,
) -> Dict[str, object]:
    """The ``BENCH_ablation.json`` payload: runs + ranked importance."""
    return {
        "benchmark": "ablation",
        "schema_version": SCHEMA_VERSION,
        "size": size,
        "seed": seed,
        "rounds": rounds,
        "workloads": sorted(set(workloads)),
        "knobs": [
            {
                "name": knob.name,
                "component": knob.component,
                "target": knob.target,
                "values": [format_value(v) for v in knob.values],
                "summary": knob.summary,
            }
            for knob in knobs
        ],
        "runs": {run_id: results[run_id] for run_id in sorted(results)},
        "importance": importance_table(results),
    }


def run_ablation(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    size: str = "small",
    seed: int = 0,
    rounds: int = 2,
    partial_path: Optional[str] = None,
    knobs: Sequence[Knob] = KNOBS,
    echo: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """One call: generate the matrix, execute it, build the report."""
    cells = generate_matrix(workloads, knobs=knobs)
    results = run_matrix(
        cells,
        size=size,
        seed=seed,
        rounds=rounds,
        partial_path=partial_path,
        echo=echo,
    )
    return build_report(
        results, workloads, size=size, seed=seed, rounds=rounds, knobs=knobs
    )


def load_report(path: str) -> Dict[str, object]:
    """Read and schema-check a ``BENCH_ablation.json`` report.

    A report whose ``knobs`` name a knob, or a knob value, this build no
    longer registers was measured by an older build; its overrides would
    name config fields or values that no longer exist, so it is refused
    rather than half-applied.
    """
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("benchmark") != "ablation":
        raise InvalidInputError(f"{path}: not an ablation report")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise InvalidInputError(
            f"{path}: schema_version {report.get('schema_version')!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    registered = {
        knob.name: {format_value(v) for v in knob.values} for knob in KNOBS
    }
    for knob in report.get("knobs", ()):
        name = knob.get("name")
        if name not in registered:
            raise InvalidInputError(
                f"{path}: knob {name!r} is not in this build's "
                "registry; re-run `make bench-ablation` to refresh the report"
            )
        for value in knob.get("values", ()):
            if value not in registered[name]:
                raise InvalidInputError(
                    f"{path}: knob value {name}={value} is not in this "
                    "build's registry; re-run `make bench-ablation` to "
                    "refresh the report"
                )
    return report
