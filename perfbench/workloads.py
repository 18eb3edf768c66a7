"""The benchmark's workloads: their ops and the checks on each op.

An op is one timed call into parkposet: a CLI invocation through
`parkposet.cli.main`, one public library call, or (for `elements`) one
element query.  Every op starts with the library's lru caches empty, as
a fresh CLI process would.  Its result is checked outside the timed
region against a digest recorded at commit 37d9d8a, a closed form, or an
independent route through the library.

Library functions are looked up through their module at call time, never
bound here, so that tracing wrappers installed later see every call.

`export` runs the build-and-serialize CLI ops.  `analysis` runs the
verification sweep (verify-all, shelling, fork lemma) and the exact
Betti number ops in one pass; they are one workload, not two, so that a
run is long enough to be steady on a shared machine.  `elements` runs
single-element queries.

Only `elements` uses the seed; the other workloads are fixed inputs.
Each element query parses a parking word, converts it to a tree and
back, lists its upper and lower covers, tests pp_leq against one of
those covers and takes pp_join with a second parsed element; at n = 6
only it also takes pp_meet, whose cost grows with the order ideal.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path
from time import perf_counter
from typing import Callable

EXPECTED_FILE = Path(__file__).with_name("expected.json")

WORKLOADS = ("export", "analysis", "elements")

MODULES = ("objects", "nc", "numbers", "parking_order", "poset", "kdivisible",
           "forests", "shelling", "homology", "enumeration", "series", "cli")

EXPORT_ARGS = (
    ("poset", "--n", "5", "--format", "json"),
    ("poset", "--n", "5", "--format", "dot"),
    ("count", "--n", "5", "--k", "3"),
    ("kdivisible", "--n", "4", "--k", "2"),
    ("cluster", "--n", "4"),
)
VERIFY_ARGS = ("verify-all", "--n", "4", "--k", "2")
VERIFY_CHECKS = 12

# Element queries: ground set sizes, queries per size and a pass, and the
# one size at which pp_meet (which walks a whole order ideal) is called.
ELEMENT_SIZES = (6, 7, 8)
QUERIES_PER_N = 1000
MEET_N = 6


def package_modules() -> list:
    """The parkposet package and each of its modules."""
    package = importlib.import_module("parkposet")
    return [package] + [importlib.import_module(f"parkposet.{m}") for m in MODULES]


def _lib(module: str):
    return importlib.import_module(f"parkposet.{module}")


def library_caches() -> dict[str, object]:
    """Every lru cache found at module level in parkposet, by name."""
    found: dict[int, tuple[str, object]] = {}
    for module in package_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if clear is None or not hasattr(value, "cache_info"):
                continue
            found.setdefault(id(clear.__self__), (value.__name__, clear.__self__))
    return dict(found.values())


def clear_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()


def load_expected() -> dict:
    with open(EXPECTED_FILE) as handle:
        return json.load(handle)


def closed_betti(n: int, k: int = 1) -> tuple[int, ...]:
    """Reduced Betti numbers, from dimension -1, of a proper part whose
    homology is (kn - 1)^(n - 1) in degree n - 2."""
    return tuple((k * n - 1) ** (n - 1) if d == n - 2 else 0 for d in range(-1, n - 1))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One timed call and the untimed check of its result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fingerprint: Callable[[object], str] = repr
    cli: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Collect garbage before each op (heavy ops) or once per pass (queries).
    gc_per_op: bool = True


# ----- export and the verification sweep -----


def run_cli(argv) -> tuple[int, str]:
    """`parkposet.cli.main(argv)` with its stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = _lib("cli").main(list(argv))
    return status, buffer.getvalue()


def _cli_fingerprint(result) -> str:
    status, text = result
    return f"{status}:{sha256(text)}"


def _digest_check(expected: str):
    def check(result) -> str | None:
        status, text = result
        if status != 0:
            return f"exit status {status}"
        if sha256(text) != expected:
            return "stdout digest differs from the recorded one"
        return None

    return check


def _verify_all_check(result) -> str | None:
    status, text = result
    lines = text.splitlines()
    if status != 0:
        return f"exit status {status}"
    if lines[-1:] != [f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"]:
        return f"last line {lines[-1:]!r}"
    if sum(line.startswith("[PASS] ") for line in lines) != VERIFY_CHECKS:
        return "not every check line passed"
    return None


def _shelling_check(report) -> str | None:
    chains = factorial(5) * 5 ** 3
    if not report.ok or report.num_chains != chains:
        return f"ok={report.ok} chains={report.num_chains}, expected {chains}"
    return None


def _fork_check(expected: int):
    def check(report) -> str | None:
        if not report.ok or report.checked != expected:
            return f"ok={report.ok} checked={report.checked}, expected {expected}"
        return None

    return check


def export_ops(expected: dict) -> list[Op]:
    digests = expected["export"]
    return [
        Op(" ".join(argv), lambda argv=argv: run_cli(argv),
           _digest_check(digests[" ".join(argv)]), _cli_fingerprint, cli=True)
        for argv in EXPORT_ARGS
    ]


def verify_ops(expected: dict) -> list[Op]:
    return [
        Op(" ".join(VERIFY_ARGS), lambda: run_cli(VERIFY_ARGS), _verify_all_check,
           _cli_fingerprint, cli=True),
        Op("verify_shelling(5)", lambda: _lib("shelling").verify_shelling(5),
           _shelling_check),
        Op("verify_fork_lemma(5)", lambda: _lib("shelling").verify_fork_lemma(5),
           _fork_check(expected["verify"]["fork_checked_n5"])),
    ]


# ----- exact Betti numbers -----


def _betti_check(expected: tuple[int, ...]):
    def check(betti) -> str | None:
        return None if tuple(betti) == expected else f"betti {betti}, expected {expected}"

    return check


def topology_ops() -> list[Op]:
    return [
        Op("parking_betti(4)", lambda: _lib("homology").parking_betti(4),
           _betti_check(closed_betti(4))),
        Op("reduced_betti(cluster(4) proper part)",
           lambda: _lib("homology").reduced_betti(
               _lib("forests").build_cluster_poset(4).without_bottom()),
           _betti_check(closed_betti(4))),
        Op("reduced_betti(ppk(4,2) proper part)",
           lambda: _lib("homology").reduced_betti(
               _lib("kdivisible").build_ppk_poset(4, 2).without_bottom()),
           _betti_check(closed_betti(4, 2))),
    ]


# ----- elements: seeded single-element queries -----


def random_parking_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniform parking word of length n, by Pollak's cyclic argument:
    of the n + 1 cyclic shifts of a word over Z/(n + 1), exactly one
    parks."""
    word = [rng.randrange(n + 1) for _ in range(n)]
    for shift in range(n + 1):
        candidate = [(w + shift) % (n + 1) + 1 for w in word]
        if all(v <= i + 1 for i, v in enumerate(sorted(candidate))):
            return tuple(candidate)
    raise AssertionError("no cyclic shift parks")


@dataclass(frozen=True)
class Query:
    n: int
    word: tuple[int, ...]
    other: tuple[int, ...]
    # Which of the element's covers pp_leq is tested against, in [0, 1).
    pick: float


def element_queries(seed: int) -> list[Query]:
    rng = random.Random(seed)
    return [
        Query(n, random_parking_word(rng, n), random_parking_word(rng, n), rng.random())
        for n in ELEMENT_SIZES
        for _ in range(QUERIES_PER_N)
    ]


@dataclass
class QueryResult:
    elem: object
    tree: object
    back: object
    ups: list
    downs: list
    cover: object
    below: bool
    second: object
    join: object
    meet: object = None


def run_query(q: Query) -> QueryResult:
    pk = importlib.import_module("parkposet")
    elem = pk.ParkingElement.from_word(q.word)
    tree = elem.to_tree()
    back = pk.ParkingElement.from_tree(tree)
    ups = pk.upper_covers(elem)
    downs = pk.lower_covers(elem)
    covers = ups + downs
    cover = covers[int(q.pick * len(covers))]
    below = pk.pp_leq(elem, cover)
    second = pk.ParkingElement.from_word(q.other)
    join = pk.pp_join(elem, second)
    meet = pk.pp_meet(elem, second) if q.n == MEET_N else None
    return QueryResult(elem, tree, back, ups, downs, cover, below, second, join, meet)


def _word(x) -> object:
    return getattr(x, "word", repr(x))


def query_fingerprint(r: QueryResult) -> str:
    return repr((
        _word(r.elem), r.tree, _word(r.back), [_word(u) for u in r.ups],
        [_word(d) for d in r.downs], _word(r.cover), r.below, _word(r.second),
        _word(r.join), _word(r.meet),
    ))


def upper_cover_count(partition) -> int:
    """Covers above an element: split a block of size m into a run of
    length L not holding its minimum (m - L places) and the rest, and
    choose which L of its m labels the run gets."""
    return sum(
        (len(b) - length) * comb(len(b), length)
        for b in partition.blocks
        for length in range(1, len(b))
    )


def query_check(q: Query, r: QueryResult) -> str | None:
    objects = _lib("objects")
    order = _lib("parking_order")
    refines = order.pp_leq_by_refinement
    if tuple(r.elem.word) != q.word or r.back != r.elem:
        return "word -> element -> tree -> element does not round-trip"
    if objects.tree_from_word(q.word) != r.tree:
        return "to_tree disagrees with tree_from_word"
    if len(r.ups) != upper_cover_count(r.elem.partition):
        return f"{len(r.ups)} upper covers"
    if any(u.rank != r.elem.rank + 1 for u in r.ups) or any(
        d.rank != r.elem.rank - 1 for d in r.downs
    ):
        return "a cover is not one rank away"
    if r.below != refines(r.elem, r.cover):
        return "pp_leq disagrees with pp_leq_by_refinement"
    if r.join is not order.TOP and not (
        refines(r.elem, r.join) and refines(r.second, r.join)
    ):
        return "join is not an upper bound of both elements"
    if r.meet is not None and not (
        refines(r.meet, r.elem) and refines(r.meet, r.second)
    ):
        return "meet is not a lower bound of both elements"
    return None


def elements_ops(seed: int) -> list[Op]:
    return [
        Op(f"query n={q.n} {''.join(map(str, q.word))}",
           lambda q=q: run_query(q),
           lambda r, q=q: query_check(q, r),
           query_fingerprint)
        for q in element_queries(seed)
    ]


def build(name: str, seed: int) -> Workload:
    """The named workload; `seed` matters only for elements."""
    if name == "export":
        return Workload(name, export_ops(load_expected()))
    if name == "analysis":
        return Workload(name, verify_ops(load_expected()) + topology_ops())
    if name == "elements":
        return Workload(name, elements_ops(seed), gc_per_op=False)
    raise ValueError(f"unknown workload {name!r}")


# ----- running passes -----


@dataclass
class Runner:
    """Runs passes over a workload's ops and keeps what they measured.

    Each op's first result is checked in full; a later result with the
    same fingerprint gets the same verdict, and any other result fails.
    """

    workload: Workload
    recorder: object = None
    caches: dict = field(default_factory=library_caches)
    pass_times: list[float] = field(default_factory=list)
    latencies: dict[int, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    # Per op index: the first result's fingerprint and its check verdict.
    fingerprints: dict[int, tuple[str, str | None]] = field(default_factory=dict)
    attempted: int = 0
    output_bytes: int = 0
    op_serial: int = 0

    def _outcome(self, index: int, op: Op, result) -> str | None:
        fingerprint = op.fingerprint(result)
        if index not in self.fingerprints:
            self.fingerprints[index] = (fingerprint, op.check(result))
        first, verdict = self.fingerprints[index]
        return verdict if fingerprint == first else "result differs from the first pass"

    def run_pass(self) -> float:
        rec = self.recorder
        total = 0.0
        if not self.workload.gc_per_op:
            gc.collect()
        for index, op in enumerate(self.workload.ops):
            clear_caches(self.caches)
            if self.workload.gc_per_op:
                gc.collect()
            warm = [name for name, c in self.caches.items() if c.cache_info().currsize]
            self.op_serial += 1
            if rec is not None:
                rec.op = self.op_serial
            result, error = None, None
            start = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed op is counted, the run goes on
                error = f"raised {exc!r}"
            elapsed = perf_counter() - start
            if rec is not None:
                rec.op = None
            self.attempted += 1
            self.latencies.setdefault(index, []).append(elapsed)
            total += elapsed
            if warm:
                error = f"started with warm caches {warm}"
            if error is None:
                try:
                    error = self._outcome(index, op, result)
                except Exception as exc:  # a check that crashes is a failure
                    error = f"check raised {exc!r}"
            if error is None and op.cli:
                self.output_bytes += len(result[1].encode())
            if error is not None:
                self.failures.append(f"{op.label}: {error}")
        self.pass_times.append(total)
        return total

    def run_for(self, seconds: float) -> None:
        """Passes until the next one would end after `seconds`; at least one."""
        start = perf_counter()
        while True:
            begin = perf_counter()
            self.run_pass()
            last = perf_counter() - begin
            if perf_counter() - start + last > seconds:
                return
