"""Tracing of parkposet from outside the library.

`install(recorder)` wraps the public functions that the per-layer
metrics name, in every module namespace (and every module-level tuple,
list or dict) where they are looked up, so calls that reach a function
through `from ... import` bindings are seen too.  `uninstall` restores
the originals.

Two kinds of wrapper exist:

* span wrappers record one span per call: name, start, end, parent span
  and op id.  Generator functions get one span per generator, whose busy
  time is the time spent inside `next`.  A span's self time is its busy
  time minus the busy time of its child spans.
* call wrappers, for the hot per-element functions (order tests, joins,
  covers, conversions), record only a duration per call.  Their time
  stays inside the self time of the enclosing span.

Nothing is recorded while no op is active (`Recorder.op is None`), so
the harness's own correctness checks do not count as work.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import package_modules

LAYERS_FILE = Path(__file__).with_name("layers.json")

# Span-wrapped functions: (module, attribute) -> metric group.  Attributes
# with a dot are methods of a class defined in that module.
SPANS = {
    ("objects", "enumerate_elements"): "objects.enumerate",
    ("parking_order", "build_pp_poset"): "parking_order.build",
    ("parking_order", "build_pp_poset_hat"): "parking_order.build",
    ("parking_order", "build_nc_poset"): "parking_order.build",
    ("parking_order", "right_comb_subposet"): "parking_order.build",
    ("parking_order", "permutahedron_face_poset"): "parking_order.build",
    ("poset", "FinitePoset.__init__"): "poset.init",
    ("poset", "FinitePoset.from_leq"): "poset.from_leq",
    ("poset", "FinitePoset.mobius_from_bottom"): "poset.mobius",
    ("poset", "FinitePoset.mobius_hat"): "poset.mobius",
    ("poset", "FinitePoset.whitney_first"): "poset.mobius",
    ("poset", "FinitePoset.zeta_count"): "poset.zeta",
    ("poset", "FinitePoset.count_maximal_chains"): "poset.zeta",
    ("poset", "FinitePoset.maximal_chains"): "poset.zeta",
    ("poset", "FinitePoset.induced"): "poset.induced",
    ("poset", "FinitePoset.interval"): "poset.induced",
    ("poset", "FinitePoset.without_bottom"): "poset.induced",
    ("poset", "FinitePoset.without_top"): "poset.induced",
    ("poset", "FinitePoset.to_json"): "poset.serialize",
    ("poset", "FinitePoset.to_dot"): "poset.serialize",
    ("kdivisible", "build_ppk_poset"): "kdivisible.build",
    ("kdivisible", "build_nck_poset"): "kdivisible.build",
    ("kdivisible", "build_divisible_nc_poset"): "kdivisible.build",
    ("kdivisible", "build_divisible_parking_poset"): "kdivisible.build",
    ("forests", "build_cluster_poset"): "forests.build",
    ("forests", "cluster_elements"): "forests.build",
    ("forests", "enumerate_forest_faces"): "forests.build",
    ("forests", "face_counts_by_size"): "forests.build",
    ("forests", "spanning_facets"): "forests.build",
    ("shelling", "verify_shelling"): "shelling.verify",
    ("shelling", "verify_fork_lemma"): "shelling.fork",
    ("shelling", "verify_nc_fork_lemma"): "shelling.fork",
    ("shelling", "check_code_monotone"): "shelling.checks",
    ("shelling", "check_equal_code_join"): "shelling.checks",
    ("shelling", "check_zero_prefix_blocks"): "shelling.checks",
    ("shelling", "check_zero_prefix_join"): "shelling.checks",
    ("shelling", "check_split_diamond"): "shelling.checks",
    ("shelling", "check_same_block_jump_bound"): "shelling.checks",
    ("shelling", "check_minimal_jump_grows"): "shelling.checks",
    ("shelling", "check_jump_code_compatible"): "shelling.checks",
    ("shelling", "check_nc_el_labeling"): "shelling.checks",
    ("shelling", "recursive_atom_ordering_failure"): "shelling.checks",
    ("homology", "chains_by_size"): "homology.chains",
    ("homology", "sparse_rank"): "homology.rank",
    ("homology", "reduced_betti"): "homology.betti",
    ("homology", "parking_betti"): "homology.betti",
    ("homology", "lefschetz_number"): "homology.lefschetz",
    ("homology", "top_homology_character"): "homology.lefschetz",
    ("enumeration", "enumerate_parking_words"): "enumeration.words",
    ("series", "chain_series"): "series",
    ("series", "chain_inverse_series"): "series",
    ("series", "series_chain_count"): "series",
    ("series", "TruncatedSeries.exp"): "series",
    ("series", "TruncatedSeries.compose"): "series",
    ("series", "TruncatedSeries.__mul__"): "series",
    ("series", "TruncatedSeries.__pow__"): "series",
    ("cli", "main"): "cli",
}

GENERATORS = {
    ("objects", "enumerate_elements"),
    ("poset", "FinitePoset.maximal_chains"),
    ("enumeration", "enumerate_parking_words"),
}

# Call-wrapped hot functions: (module, attribute) -> sample group.
CALLS = {
    ("objects", "ParkingElement.from_word"): "objects.convert",
    ("objects", "ParkingElement.to_tree"): "objects.convert",
    ("objects", "ParkingElement.from_tree"): "objects.convert",
    ("nc", "nc_leq"): "nc.leq",
    ("parking_order", "pp_leq"): "parking_order.leq",
    ("parking_order", "pp_join"): "parking_order.join",
    ("parking_order", "pp_meet"): "parking_order.meet",
    ("parking_order", "upper_covers"): "parking_order.covers",
    ("parking_order", "lower_covers"): "parking_order.covers",
}


def _poset_size(poset) -> tuple[int, int]:
    return len(poset.elements), sum(len(up) for up in poset.up)


def _count_builder_covers(rec, args, result, fresh):
    if fresh:
        rec.add("parking_order.covers", _poset_size(result)[1])


def _count_init(rec, args, result, fresh):
    elements, covers = _poset_size(args[0])
    rec.add("poset.elements", elements)
    rec.add("poset.covers", covers)


def _count_from_leq(rec, args, result, fresh):
    m = len(result.elements)
    rec.add("poset.from_leq_pairs", m * (m - 1))


def _count_kdivisible(rec, args, result, fresh):
    rec.add("kdivisible.elements", len(result.elements))


def _count_faces(rec, args, result, fresh):
    rec.add("forests.faces", len(result))


def _count_shelling(rec, args, result, fresh):
    rec.add("shelling.chains", result.num_chains)


def _count_fork(rec, args, result, fresh):
    rec.add("shelling.fork_checked", result.checked)


def _count_chains(rec, args, result, fresh):
    rec.add("homology.chains", sum(len(layer) for layer in result))


def _count_rank(rec, args, result, fresh):
    rows = args[0]
    rec.add("homology.matrix_rows", len(rows))
    rec.add("homology.matrix_nnz", sum(1 for row in rows for v in row.values() if v))
    rec.add("homology.rank", result)


def _count_lefschetz(rec, args, result, fresh):
    rec.add("homology.lefschetz_calls", 1)


SPARSE_RANK = ("homology", "sparse_rank")

# Work counters read off a span's arguments or result when it closes.
COUNTERS = {
    ("parking_order", "build_pp_poset"): _count_builder_covers,
    ("parking_order", "build_pp_poset_hat"): _count_builder_covers,
    ("parking_order", "build_nc_poset"): _count_builder_covers,
    ("parking_order", "right_comb_subposet"): _count_builder_covers,
    ("parking_order", "permutahedron_face_poset"): _count_builder_covers,
    ("poset", "FinitePoset.__init__"): _count_init,
    ("poset", "FinitePoset.from_leq"): _count_from_leq,
    ("kdivisible", "build_ppk_poset"): _count_kdivisible,
    ("kdivisible", "build_nck_poset"): _count_kdivisible,
    ("kdivisible", "build_divisible_nc_poset"): _count_kdivisible,
    ("kdivisible", "build_divisible_parking_poset"): _count_kdivisible,
    ("forests", "enumerate_forest_faces"): _count_faces,
    ("shelling", "verify_shelling"): _count_shelling,
    ("shelling", "verify_fork_lemma"): _count_fork,
    ("shelling", "verify_nc_fork_lemma"): _count_fork,
    ("homology", "chains_by_size"): _count_chains,
    SPARSE_RANK: _count_rank,
    ("homology", "lefschetz_number"): _count_lefschetz,
}

# Items yielded by traced generators, per generator.
YIELD_COUNTERS = {
    ("objects", "enumerate_elements"): "objects.elements",
    ("enumeration", "enumerate_parking_words"): "enumeration.words",
}


class Recorder:
    """Spans, per-call samples and counters of one traced run, in memory."""

    def __init__(self):
        self.op: int | None = None
        # Each span is [name, start, end, parent, op, busy].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.true_counts: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = span[2] - span[1]
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_busy = [0.0] * len(self.spans)
        for name, start, end, parent, op, busy in self.spans:
            if parent is not None:
                child_busy[parent] += busy
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span[0]] += span[5] - child_busy[index]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans, one JSON array per line after a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "op", "busy"]))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _TracedIterator:
    """Generator proxy: one span whose busy time is the time inside next."""

    def __init__(self, rec: Recorder, name: str, iterator, counter: str | None):
        self._rec = rec
        self._iterator = iterator
        self._counter = counter
        parent = rec.stack[-1] if rec.stack else None
        rec.spans.append([name, perf_counter(), None, parent, rec.op, 0.0])
        self._index = len(rec.spans) - 1

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        span = rec.spans[self._index]
        rec.stack.append(self._index)
        start = perf_counter()
        try:
            item = next(self._iterator)
        except StopIteration:
            span[2] = perf_counter()
            span[5] += span[2] - start
            raise
        finally:
            rec.stack.pop()
        span[5] += perf_counter() - start
        if self._counter is not None:
            rec.counts[self._counter] += 1
        return item


def _cache_attrs(original, wrapper) -> None:
    for attr in ("cache_info", "cache_clear"):
        if hasattr(original, attr):
            setattr(wrapper, attr, getattr(original, attr))


def _span_wrapper(rec: Recorder, key, fn):
    name = f"{key[0]}.{key[1]}"
    counter = COUNTERS.get(key)
    cached = hasattr(fn, "cache_info")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        if key == SPARSE_RANK and args and not isinstance(args[0], (list, tuple)):
            # The counter reads the rows after the call, so keep them.
            args = (list(args[0]),) + args[1:]
        misses = fn.cache_info().misses if cached else 0
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            fresh = not cached or fn.cache_info().misses > misses
            counter(rec, args, result, fresh)
        return result

    _cache_attrs(fn, wrapper)
    return wrapper


def _generator_wrapper(rec: Recorder, key, fn):
    name = f"{key[0]}.{key[1]}"
    counter = YIELD_COUNTERS.get(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        return _TracedIterator(rec, name, fn(*args, **kwargs), counter)

    return wrapper


def _call_wrapper(rec: Recorder, key, fn):
    group = CALLS[key]
    samples = rec.samples[group]
    true_counts = rec.true_counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        start = perf_counter()
        result = fn(*args, **kwargs)
        samples.append(perf_counter() - start)
        if result is True:
            true_counts[group] += 1
        return result

    return wrapper


def _rebind(value, table: dict):
    """`value` with every original function replaced by its wrapper, or
    `value` itself when nothing in it is wrapped."""
    if isinstance(value, (tuple, list)):
        items = [_rebind(item, table) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            return type(value)(items)
        return value
    if isinstance(value, dict):
        items = {k: _rebind(v, table) for k, v in value.items()}
        if any(items[k] is not v for k, v in value.items()):
            return items
        return value
    if callable(value) and id(value) in table:
        return table[id(value)][1]
    return value


class Installation:
    """Wrappers installed into parkposet; `uninstall` restores everything."""

    def __init__(self):
        self.restore: list[tuple[object, str, object]] = []
        # Traced functions the library no longer has; their metrics read 0.
        self.missing: list[tuple[str, str]] = []

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.restore):
            setattr(owner, attr, old)
        self.restore.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every traced function for `rec` and return the installation."""
    installation = Installation()
    table: dict[int, tuple[object, object]] = {}
    for key in list(SPANS) + list(CALLS):
        module = importlib.import_module(f"parkposet.{key[0]}")
        if key in CALLS:
            make = _call_wrapper
        elif key in GENERATORS:
            make = _generator_wrapper
        else:
            make = _span_wrapper
        if "." in key[1]:
            cls_name, attr = key[1].split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                installation.missing.append(key)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(make(rec, key, raw.__func__))
            else:
                new = make(rec, key, raw)
            installation.restore.append((cls, attr, raw))
            setattr(cls, attr, new)
        else:
            original = getattr(module, key[1], None)
            if original is None:
                installation.missing.append(key)
                continue
            table[id(original)] = (original, make(rec, key, original))
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            new = _rebind(value, table)
            if new is not value:
                installation.restore.append((module, attr, value))
                setattr(module, attr, new)
    return installation


def _median_us(samples) -> float:
    return statistics.median(samples) * 1e6 if samples else 0.0


def layer_metrics(rec: Recorder, passes: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, times and counts per pass."""
    self_time: dict[str, float] = defaultdict(float)
    for name, value in rec.self_times().items():
        module, attr = name.split(".", 1)
        self_time[SPANS[(module, attr)]] += value
    counts = rec.counts
    samples = rec.samples
    leq_calls = len(samples["parking_order.leq"])
    per_pass = {
        "objects.enumerate_s": self_time["objects.enumerate"],
        "objects.elements": counts["objects.elements"],
        "nc.leq_calls": len(samples["nc.leq"]),
        "parking_order.build_s": self_time["parking_order.build"],
        "parking_order.covers": counts["parking_order.covers"],
        "parking_order.leq_calls": leq_calls,
        "parking_order.join_calls": len(samples["parking_order.join"]),
        "poset.init_s": self_time["poset.init"],
        "poset.elements": counts["poset.elements"],
        "poset.covers": counts["poset.covers"],
        "poset.from_leq_s": self_time["poset.from_leq"],
        "poset.from_leq_pairs": counts["poset.from_leq_pairs"],
        "poset.mobius_s": self_time["poset.mobius"],
        "poset.zeta_s": self_time["poset.zeta"],
        "poset.induced_s": self_time["poset.induced"],
        "poset.serialize_s": self_time["poset.serialize"],
        "kdivisible.build_s": self_time["kdivisible.build"],
        "kdivisible.elements": counts["kdivisible.elements"],
        "forests.build_s": self_time["forests.build"],
        "forests.faces": counts["forests.faces"],
        "shelling.verify_s": self_time["shelling.verify"],
        "shelling.chains": counts["shelling.chains"],
        "shelling.fork_s": self_time["shelling.fork"],
        "shelling.fork_checked": counts["shelling.fork_checked"],
        "shelling.checks_s": self_time["shelling.checks"],
        "homology.chains_s": self_time["homology.chains"],
        "homology.chains": counts["homology.chains"],
        "homology.rank_s": self_time["homology.rank"],
        "homology.matrix_rows": counts["homology.matrix_rows"],
        "homology.matrix_nnz": counts["homology.matrix_nnz"],
        "homology.rank": counts["homology.rank"],
        "homology.betti_s": self_time["homology.betti"],
        "homology.lefschetz_s": self_time["homology.lefschetz"],
        "homology.lefschetz_calls": counts["homology.lefschetz_calls"],
        "enumeration.words_s": self_time["enumeration.words"],
        "enumeration.words": counts["enumeration.words"],
        "series.s": self_time["series"],
        "cli.self_s": self_time["cli"],
        "cli.output_bytes": output_bytes,
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics["parking_order.leq_true_ratio"] = (
        rec.true_counts["parking_order.leq"] / leq_calls if leq_calls else 0.0
    )
    convert = samples["objects.convert"]
    metrics["objects.convert_us_p50"] = _median_us(convert)
    metrics["parking_order.leq_us_p50"] = _median_us(samples["parking_order.leq"])
    metrics["parking_order.join_us_p50"] = _median_us(samples["parking_order.join"])
    metrics["parking_order.meet_us_p50"] = _median_us(samples["parking_order.meet"])
    metrics["parking_order.covers_us_p50"] = _median_us(samples["parking_order.covers"])
    return metrics


def load_layers() -> list[dict]:
    """The layer -> metric -> (end-to-end metric, workload) map."""
    with open(LAYERS_FILE) as handle:
        return json.load(handle)["metrics"]
