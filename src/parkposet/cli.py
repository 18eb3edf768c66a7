"""Command line front end: builds, tables, verifications, exports.

Subcommands
-----------
convert     translate a parking element between representations
poset       build a poset and export it as JSON or DOT
count       multichain count table: closed formula, poset oracle, series
shelling    shelling and cover order verification report (JSON)
homology    Betti table or homology character table
cluster     forest complex face counts and the cluster parking poset
kdivisible  k-divisible chain poset: counts, ranks, characters
verify-all  run the verification sweep; exit 0 only if every check passes

Conventions: CSV output has a header row and LF line endings, JSON is
dumped with sorted keys, DOT node labels are parking words.  Identical
invocations produce byte-identical output.  Sizes above the default
budget need --long.  Exit status is 0 on success, 1 when a requested
verification fails or a computation raises ValueError or RuntimeError
(a broken invariant), and 2 on argument errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import pairwise, permutations
from math import factorial, prod
from typing import Callable, Iterable, Sequence

from .enumeration import (
    chain_from_ktree,
    enumerate_parking_words,
    is_prime_parking_word,
    ktree_code,
    ktree_from_chain,
    ktree_from_code,
    parking_character,
    prime_parking_character,
    tree_action,
)
from .forests import (
    build_cluster_poset,
    enumerate_forest_faces,
    face_counts_by_size,
    forest_components,
    spanning_facets,
)
from .homology import (
    parking_betti,
    reduced_betti,
    reduced_euler_characteristic,
    signed_prime_character,
    top_degree_character,
    top_homology_character,
)
from .kdivisible import (
    build_divisible_nc_poset,
    build_nck_poset,
    build_ppk_poset,
    is_prime_chain,
    ppk_action_ids,
)
from .nc import (
    NoncrossingPartition,
    Permutation,
    class_representatives,
    enumerate_noncrossing,
)
from .numbers import (
    catalan,
    chain_count,
    fuss_catalan,
    parking_count,
    prime_parking_count,
    stirling2,
    whitney_first_kind,
)
from .objects import (
    ParkingElement,
    Tree,
    enumerate_elements,
    enumerate_trees,
)
from .parking_order import (
    MAX_POSET_N,
    build_nc_poset,
    build_pp_poset,
    element_from_block_labels,
    parking_words,
    permutahedron_face_poset,
    pp_action_ids,
    right_comb_subposet,
)
from .poset import FinitePoset, posets_isomorphic
from .series import (
    TruncatedSeries,
    chain_inverse_series,
    chain_series,
    log1p_series,
)
from .shelling import (
    check_code_monotone,
    check_equal_code_join,
    check_jump_code_compatible,
    check_minimal_jump_grows,
    check_nc_el_labeling,
    check_same_block_jump_bound,
    check_split_diamond,
    check_zero_prefix_blocks,
    check_zero_prefix_join,
    recursive_atom_ordering_failure,
    verify_fork_lemma,
    verify_nc_fork_lemma,
    verify_shelling,
)

REPRESENTATIONS = ("triple", "pair", "word", "tree")
# (lo, hi, long_hi) of n for the parking poset build behind `poset` and
# the oracle column of `count`
_PARKING_N = (2, 5, MAX_POSET_N)


class CommandError(Exception):
    """A bad argument or out-of-budget request, reported with status 2."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CommandError(message)


def _require_n(args: argparse.Namespace, lo: int, hi: int, long_hi: int) -> None:
    """Require lo <= --n <= hi, or lo <= --n <= long_hi with --long."""
    top = long_hi if args.long else hi
    _require(lo <= args.n <= top, f"need {lo} <= n <= {hi} ({long_hi} with --long)")


# ----- output helpers -----


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise CommandError(f"cannot write {path}: {exc.strerror}") from exc


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _json_text(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _word_text(word: Sequence[int]) -> str:
    joint = "" if len(word) < 10 else "."
    return joint.join(map(str, word))


def _blocks_label(partition) -> str:
    return "|".join(".".join(str(x) for x in b) for b in partition.blocks)


def _chain_label(chain: Sequence[ParkingElement]) -> str:
    return ";".join(_word_text(x.word) for x in chain)


def _cycle_type_label(perm: Permutation) -> str:
    parts = sorted(perm.cycle_type(), reverse=True)
    return "+".join(str(p) for p in parts)


# ----- convert -----


def _require_int_leaves(data: object) -> None:
    """Raise ValueError unless every leaf of parsed JSON is an integer;
    booleans and floats are not."""
    stack = [data]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif type(item) is not int:
            raise ValueError(f"{json.dumps(item)} is not an integer")


def _parse_element(kind: str, text: str) -> ParkingElement:
    try:
        if kind == "word":
            stripped = text.strip()
            if stripped and all(c.isdigit() for c in stripped):
                return ParkingElement.from_word([int(c) for c in stripped])
        data = json.loads(text)
        if kind == "word":
            if type(data) is not list or any(type(x) is not int for x in data):
                raise ValueError("a word is a list of integers")
            return ParkingElement.from_word(data)
        _require_int_leaves(data)
        if kind == "tree":
            return ParkingElement.from_tree(Tree.from_json(data))
        if kind == "pair":
            sigma = Permutation(data["sigma"])
            partition = NoncrossingPartition(sigma.n, data["partition"])
            return ParkingElement(partition, sigma)
        blocks, labels = data["partition"], data["labels"]
        if len(labels) != len(blocks):
            raise ValueError("one label set per block is required")
        n = sum(len(b) for b in blocks)
        return element_from_block_labels(n, zip(blocks, labels))
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CommandError(f"bad {kind} input: {exc}") from exc


def _render_element(kind: str, elem: ParkingElement) -> dict:
    if kind == "word":
        return {"n": elem.n, "word": list(elem.word)}
    if kind == "tree":
        return elem.to_tree().to_json()
    if kind == "pair":
        return {
            "n": elem.n,
            "partition": [list(b) for b in elem.partition.blocks],
            "sigma": [elem.sigma(i) for i in range(1, elem.n + 1)],
        }
    return {
        "n": elem.n,
        "partition": [list(b) for b in elem.partition.blocks],
        "rho": [list(b) for b in elem.rho.blocks],
        "labels": [list(lab) for lab in elem.labels],
    }


def cmd_convert(args: argparse.Namespace) -> int:
    elem = _parse_element(args.source, args.input)
    _emit(_json_text(_render_element(args.target, elem)), args.output)
    return 0


# ----- poset -----


def cmd_poset(args: argparse.Namespace) -> int:
    n = args.n
    if args.which == "parking":
        _require_n(args, *_PARKING_N)
        poset = build_pp_poset(n)
        labels = map(_word_text, parking_words(n))
    else:
        _require_n(args, 1, 7, 9)
        poset = build_nc_poset(n)
        labels = map(_blocks_label, poset.elements)
    if args.format == "dot":
        _emit(poset.to_dot(labels), args.output)
    else:
        _emit(_json_text(poset.to_json(labels, n=n, kind=args.which)), args.output)
    return 0


# ----- count -----


def cmd_count(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    _require(2 <= n <= 7, "need 2 <= n <= 7")
    _require(1 <= k <= 6, "need 1 <= k <= 6")
    lengths = range(n) if args.l is None else [args.l]
    _require(all(0 <= l < n for l in lengths), f"need 0 <= l < {n}")
    with_oracle = n <= _PARKING_N[2 if args.long else 1]
    oracle = build_pp_poset(n).multichain_rank_counts(k) if with_oracle else None
    series = chain_series(k, n)
    rows = []
    for l in lengths:
        seen = oracle[l] if oracle is not None else ""
        rows.append((n, k, l, chain_count(n, k, l), seen, series.labelled_count(n, l)))
    _emit(_csv_text(("n", "k", "l", "closed", "oracle", "series"), rows), args.output)
    return 0


# ----- shelling -----


_SHELLING_CHECKS: tuple[tuple[str, Callable[[int], int]], ...] = (
    ("code_monotone", check_code_monotone),
    ("equal_code_join", check_equal_code_join),
    ("zero_prefix_blocks", check_zero_prefix_blocks),
    ("zero_prefix_join", check_zero_prefix_join),
    ("split_diamond", check_split_diamond),
    ("same_block_jump_bound", check_same_block_jump_bound),
    ("minimal_jump_grows", check_minimal_jump_grows),
    ("jump_code_compatible", check_jump_code_compatible),
    ("nc_el_labeling", check_nc_el_labeling),
)


def shelling_suite(n: int) -> list[dict]:
    """Run the shelling suite on [n]: the shelling check, both fork
    lemmas and the support lemmas, one report entry each.  The shelling
    entry also fails when its homology facets are not (n-1)^(n-1), the
    top Betti number of the proper part.  Every check runs under the same
    capture: one that finds a broken invariant and raises ValueError or
    RuntimeError reports ok false, with the exception text as its
    counterexample.  A report's domain is the field named next to it; a
    support check returns its domain."""
    runs = [
        ("shelling", verify_shelling, "num_chains"),
        ("cover_fork", verify_fork_lemma, "checked"),
        ("nc_cover_fork", verify_nc_fork_lemma, "checked"),
        *((name, check, None) for name, check in _SHELLING_CHECKS),
    ]
    entries = []
    for name, check, field in runs:
        try:
            result = check(n)
            domain = result if field is None else getattr(result, field)
            violations = [] if field is None else result.violations
            if name == "shelling" and result.facets != prime_parking_count(n):
                facets = f"{result.facets} homology facets"
                closed = f"(n-1)^(n-1) = {prime_parking_count(n)}"
                violations = [*violations, f"{facets}, not {closed}"]
            counterexample = str(violations[0]) if violations else None
        except (ValueError, RuntimeError) as exc:
            domain, counterexample = None, str(exc)
        entries.append(
            {
                "name": name,
                "n": n,
                "domain": domain,
                "ok": counterexample is None,
                "counterexample": counterexample,
            }
        )
    return entries


def _regression_entry() -> dict:
    """The report entry of the witness on [6] that the cover orders are
    no recursive atom ordering."""
    entry = {"name": "recursive_atom_ordering_regression", "n": 6, "domain": 1}
    try:
        witness = recursive_atom_ordering_failure()
    except (ValueError, RuntimeError) as exc:
        return {**entry, "ok": False, "counterexample": str(exc)}
    labels = {key: _word_text(e.word) for key, e in witness.items()}
    return {**entry, "ok": True, "counterexample": None, "witness": labels}


def cmd_shelling(args: argparse.Namespace) -> int:
    n = args.n
    _require_n(args, 2, 4, 5)
    entries = [*shelling_suite(n), _regression_entry()]
    ok = all(entry["ok"] for entry in entries)
    _emit(_json_text({"n": n, "ok": ok, "checks": entries}), args.output)
    return 0 if ok else 1


# ----- homology -----


def _character_table(
    args: argparse.Namespace, n: int, k: int, poset: FinitePoset, image_of: Callable
) -> int:
    """Emit the Lefschetz character of each class of S_n on the top
    homology of the proper part of poset, image_of(perm) being the id
    permutation of perm, next to signed_prime_character(n, k, perm)."""
    rows = []
    ok = True
    for perm in class_representatives(n):
        value = top_degree_character(n, poset, image_of(perm))
        closed = signed_prime_character(n, k, perm)
        match = value == closed
        ok = ok and match
        rows.append((_cycle_type_label(perm), value, closed, "yes" if match else "no"))
    header = ("cycle_type", "lefschetz", "closed", "match")
    if args.format == "json":
        data = [dict(zip(header, row)) for row in rows]
        _emit(_json_text({"n": n, "ok": ok, "characters": data}), args.output)
    else:
        _emit(_csv_text(header, rows), args.output)
    return 0 if ok else 1


def cmd_homology(args: argparse.Namespace) -> int:
    n = args.n
    if args.character:
        # One Mobius recursion per class: n = 6 takes about 2 s.
        _require_n(args, 2, 4, 6)
        return _character_table(
            args, n, 1, build_pp_poset(n), lambda perm: pp_action_ids(n, perm)
        )
    _require_n(args, 2, 4, 6)
    betti = parking_betti(n)
    rows = [(degree - 1, rank) for degree, rank in enumerate(betti)]
    if args.format == "json":
        _emit(
            _json_text({"n": n, "betti": {str(d): r for d, r in rows}}), args.output
        )
    else:
        _emit(_csv_text(("degree", "rank"), rows), args.output)
    return 0


# ----- cluster -----


def cmd_cluster(args: argparse.Namespace) -> int:
    n = args.n
    if args.format == "csv":
        _require(2 <= n <= 8, "need 2 <= n <= 8 for face counts")
        counts = face_counts_by_size(n)
        rows = [(size, value) for size, value in enumerate(counts)]
        _emit(_csv_text(("size", "faces"), rows), args.output)
        return 0
    _require_n(args, 2, 4, 5)
    poset = build_cluster_poset(n)
    if args.format == "dot":
        _emit(
            poset.to_dot(
                " ".join(f"{i}-{j}" for i, j in sorted(face))
                + "|"
                + _word_text(elem.word)
                for face, elem in poset.elements
            ),
            args.output,
        )
        return 0
    counts = face_counts_by_size(n)
    _emit(
        _json_text(
            {
                "n": n,
                "face_counts": counts,
                "total_faces": sum(counts),
                "facets": counts[n - 1],
                "poset_size": len(poset),
                "rank_sizes": poset.whitney_second(),
            }
        ),
        args.output,
    )
    return 0


# ----- kdivisible -----


# The (elements, chain entries) that a k-divisible poset may have, by
# default and with --long.  The down masks take elements**2 bits, and the
# build works through elements * k chain entries.  At the --long bounds,
# on a shared 2-CPU machine, (n, k) = (6, 1) takes 2.3-4.4 s and 155 MB;
# (2, 499), (3, 37) and (4, 6) take 1 s or less, (3, 37) also with
# --character.
_KDIVISIBLE_BUDGET = ((1000, 50000), (20000, 500000))


def _kdivisible_refusal(n: int, k: int, long: bool) -> str | None:
    """Why the k-divisible poset on [n] is over the budget (the --long
    one when long), or None when it fits.  Needs n >= 2 and k >= 1."""
    max_size, max_entries = _KDIVISIBLE_BUDGET[long]
    # (kn+1)^(n-1) >= 2^((n-1)(b-1)) for b the bit length of kn+1.  Past
    # max_size**2 the count is not computed: it can take unbounded time
    # and have more digits than an int may print.
    if (n - 1) * ((k * n + 1).bit_length() - 1) >= (max_size**2).bit_length():
        return (
            f"poset has more than {max_size**2} elements,"
            f" above the element budget {max_size}"
        )
    size = parking_count(n, k)
    if size > max_size:
        return (
            f"poset has {size} elements, above the element budget {max_size}"
            f" (its down masks alone take {size * size >> 23} MB)"
        )
    if size * k > max_entries:
        return (
            f"poset has {size} chains of length {k}, {size * k} chain entries,"
            f" above the chain entry budget {max_entries}"
        )
    return None


def cmd_kdivisible(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    _require(n >= 2 and k >= 1, "need n >= 2 and k >= 1")
    refusal = _kdivisible_refusal(n, k, args.long)
    if refusal:
        raise CommandError(refusal)
    # With no --format, the character table is csv and the summary json.
    if args.character:
        _require(args.format != "dot", "--character supports --format csv or json")
    poset = build_ppk_poset(n, k)
    if args.character:
        return _character_table(
            args, n, k, poset, lambda perm: ppk_action_ids(n, k, perm)
        )
    if args.format == "dot":
        _emit(poset.to_dot(map(_chain_label, poset.elements)), args.output)
        return 0
    summary = _kdivisible_summary(n, k, poset)
    if args.format == "csv":
        rows = [
            (n, k, l, count, chain_count(n, k, l))
            for l, count in enumerate(summary["rank_sizes"])
        ]
        _emit(_csv_text(("n", "k", "l", "count", "closed"), rows), args.output)
    else:
        _emit(_json_text(summary), args.output)
    return 1 if _kdivisible_mismatch(summary) else 0


def _kdivisible_summary(n: int, k: int, poset: FinitePoset) -> dict:
    """The k-divisible poset's counts, each next to its closed form."""
    return {
        "n": n,
        "k": k,
        "elements": len(poset),
        "elements_closed": parking_count(n, k),
        "rank_sizes": poset.whitney_second(),
        "rank_sizes_closed": [chain_count(n, k, l) for l in range(n)],
        "mobius": poset.mobius_hat(),
        "mobius_closed": (-1) ** n * prime_parking_count(n, k),
        "primes": sum(1 for c in poset.elements if is_prime_chain(c)),
        "primes_closed": prime_parking_count(n, k),
        "nc_chains": fuss_catalan(n, k + 1),
    }


def _kdivisible_mismatch(summary: dict) -> str | None:
    """The first count of a `_kdivisible_summary` that differs from its
    closed form, or None."""
    for key in ("elements", "rank_sizes", "mobius", "primes"):
        if summary[key] != summary[f"{key}_closed"]:
            return key
    return None


# ----- verify-all -----
#
# VERIFY_CHECKS is the one implementation of each verification criterion.
# A criterion takes the largest n and k it is to check and returns whether
# it holds with a one-line detail; verify-all runs it at the n and k of
# the sweep, whose own range is the one limit on n, and the acceptance
# tests run it directly.


def _count_pairs(n: int) -> int:
    """The pairs (pi, sigma) of a noncrossing partition of [n] and a
    permutation of [n] increasing on every block of pi, one by one."""
    pairs = 0
    for pi in enumerate_noncrossing(n):
        steps = [(a - 1, b - 1) for block in pi.blocks for a, b in pairwise(block)]
        pairs += sum(all(s[a] < s[b] for a, b in steps) for s in permutations(range(n)))
    return pairs


def _verify_cardinality(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        expected = parking_count(n)
        pairs = _count_pairs(n)
        words = sum(1 for _ in enumerate_parking_words(n))
        trees = sum(1 for _ in enumerate_trees(n))
        triples = len({e.to_triple() for e in enumerate_elements(n)})
        if not (pairs == words == trees == triples == expected):
            return False, (
                f"n={n}: pairs {pairs}, words {words}, trees {trees}, "
                f"triples {triples}, expected {expected}"
            )
    return True, f"(n+1)^(n-1) in four representations, n=2..{nmax}"


def _verify_whitney_second(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        census = build_pp_poset(n).whitney_second()
        # With no poset: the fibre over a partition with l + 1 blocks b
        # holds its n!/prod |b|! labellings, all of rank l.
        fibres = [0] * n
        for pi in enumerate_noncrossing(n):
            sizes = [factorial(len(block)) for block in pi.blocks]
            fibres[len(sizes) - 1] += factorial(n) // prod(sizes)
        closed = [chain_count(n, 1, l) for l in range(n)]
        if not census == fibres == closed:
            return False, f"n={n}: census {census}, fibres {fibres}, closed {closed}"
    return True, f"rank census matches l!*binom(n,l)*S2(n,l+1), n=2..{nmax}"


def _verify_chain_formula(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        poset = build_pp_poset(n)
        for k in range(1, kmax + 1):
            oracle = poset.multichain_rank_counts(k)
            closed = [chain_count(n, k, l) for l in range(n)]
            if oracle != closed:
                return False, f"(n,k)=({n},{k}): oracle {oracle} != {closed}"
            if sum(oracle) != parking_count(n, k):
                return False, f"(n,k)=({n},{k}): total {sum(oracle)}"
    return True, f"multichain census matches closed counts, n<={nmax}, k<={kmax}"


def _verify_mobius(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        poset = build_pp_poset(n)
        observed = poset.whitney_first()
        closed = [whitney_first_kind(n, l) for l in range(n)]
        if observed != closed:
            return False, f"n={n}: whitney {observed} != {closed}"
        hat = poset.mobius_hat()
        if hat != (-1) ** n * prime_parking_count(n):
            return False, f"n={n}: mobius {hat}"
    return True, f"Whitney first kind and mobius match closed forms, n=2..{nmax}"


def _verify_shelling_sweep(nmax: int, kmax: int) -> tuple[bool, str]:
    chains = 0
    for n in range(2, nmax + 1):
        entries = shelling_suite(n)
        for entry in entries:
            if not entry["ok"]:
                return False, f"n={n}: {entry['name']}: {entry['counterexample']}"
        if entries[0]["domain"] != factorial(n) * n ** (n - 2):
            return False, f"n={n}: {entries[0]['domain']} maximal chains"
        chains += entries[0]["domain"]
    regression = _regression_entry()
    if not regression["ok"]:
        return False, f"regression witness broke: {regression['counterexample']}"
    return True, f"shelling and support lemmas, n=2..{nmax} ({chains} chains)"


def _betti_closed(n: int, k: int = 1) -> tuple[int, ...]:
    """Reduced Betti numbers of the proper part of the k-divisible poset
    on [n], from degree -1: (kn-1)^(n-1) in degree n-2."""
    return (0,) * (n - 1) + (prime_parking_count(n, k),)


def _verify_homology(nmax: int, kmax: int) -> tuple[bool, str]:
    """Betti numbers by elimination against the closed form, and Hall's
    theorem: the reduced Euler characteristic of the proper part, from
    chain counts, is the Mobius value of the poset with a top adjoined."""
    for n in range(2, nmax + 1):
        betti = parking_betti(n)
        if betti != _betti_closed(n):
            return False, f"n={n}: betti {betti} != {_betti_closed(n)}"
        poset = build_pp_poset(n)
        mu = poset.mobius_hat()
        euler = reduced_euler_characteristic(poset.without_bottom())
        if euler != mu:
            return False, f"n={n}: reduced Euler characteristic {euler} != mu {mu}"
    return True, f"betti concentrated in degree n-2 with rank (n-1)^(n-1), n=2..{nmax}"


def _cycle_pairs(perm: Permutation) -> list[tuple[int, int]]:
    """Pairs of consecutive positions (0-based) on each cycle of perm."""
    return [(a - 1, b - 1) for cyc in perm.cycles() for a, b in zip(cyc, cyc[1:])]


def _fixed(pairs: list[tuple[int, int]], words: Iterable[tuple[int, ...]]) -> int:
    """Words fixed by a permutation: those constant on each of its cycles,
    given by ``_cycle_pairs``."""
    return sum(1 for w in words if all(w[a] == w[b] for a, b in pairs))


def _verify_characters(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        classes = [(perm, _cycle_pairs(perm)) for perm in class_representatives(n)]
        words = {k: list(enumerate_parking_words(n, k)) for k in range(1, kmax + 1)}
        prime_words = [w for w in words[1] if is_prime_parking_word(w)]
        for perm, pairs in classes:
            value = top_homology_character(n, perm)
            if value != signed_prime_character(n, 1, perm):
                return False, f"n={n}, type {_cycle_type_label(perm)}: {value}"
            fixed_prime = _fixed(pairs, prime_words)
            if fixed_prime != prime_parking_character(n, 1, perm):
                return False, f"n={n}: prime fixed count {fixed_prime}"
            sign = -1 if (n - perm.num_cycles()) % 2 else 1
            if value != sign * fixed_prime:
                return False, f"n={n}: sign times prime count fails"
            for k, kwords in words.items():
                fixed = _fixed(pairs, kwords)
                if fixed != parking_character(n, k, perm):
                    return False, f"(n,k)=({n},{k}): fixed {fixed}"
        if n == 3:
            for k, kwords in words.items():
                primes = [w for w in kwords if is_prime_parking_word(w, k)]
                for perm, pairs in classes:
                    fixed = _fixed(pairs, primes)
                    if fixed != prime_parking_character(3, k, perm):
                        return False, f"k={k}: prime k-word count {fixed}"
    return True, f"Lefschetz and fixed-point characters, n<={nmax}, k<={kmax}"


def _verify_series(nmax: int, kmax: int) -> tuple[bool, str]:
    order = 6
    x = TruncatedSeries.x(order)
    t = TruncatedSeries.t(order)
    one = TruncatedSeries.constant(order, 1)
    for k in range(1, kmax + 1):
        series = chain_series(k, order)
        inner = x * (t * series + one) ** k
        if series != inner.exp() - one or log1p_series(order).compose(series) != inner:
            return False, f"k={k}: functional equation fails"
        inverse = chain_inverse_series(k, order)
        if series.compose(inverse) != x or inverse.compose(series) != x:
            return False, f"k={k}: compositional inverse fails"
        for n in range(2, order + 1):
            for l in range(n):
                if series.labelled_count(n, l) != chain_count(n, k, l):
                    return False, f"(n,k,l)=({n},{k},{l}): coefficient mismatch"
    return True, f"species equation, inverse, coefficients to order {order}, k<={kmax}"


def _verify_ktrees(nmax: int, kmax: int) -> tuple[bool, str]:
    n, k = 3, 2
    trees = list(enumerate_trees(n, k))
    if len(trees) != parking_count(n, k):
        return False, f"{len(trees)} k-trees"
    chains = set()
    for tree in trees:
        blocks, slots, word = ktree_code(tree, k)
        if ktree_from_code(n, k, blocks, slots, word) != tree:
            return False, f"Prufer roundtrip fails on {tree!r}"
        chain = chain_from_ktree(tree, k)
        chains.add(tuple(chain))
        if ktree_from_chain(chain) != tree:
            return False, f"chain roundtrip fails on {tree!r}"
        for images in permutations(range(1, n + 1)):
            perm = Permutation(images)
            moved = ktree_from_chain([e.act(perm) for e in chain])
            if moved != tree_action(perm, tree):
                return False, f"equivariance fails on {tree!r}"
    if len(chains) != len(trees):
        return False, f"{len(chains)} distinct chains from {len(trees)} k-trees"
    return True, f"Prufer and chain bijections round-trip, (n,k)=({n},{k})"


def _verify_cluster(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, 8):
        facets = spanning_facets(n)
        if len(facets) != catalan(n - 1):
            return False, f"n={n}: {len(facets)} facets"
    for n in range(2, 6):
        fibers: dict[NoncrossingPartition, int] = {}
        for face in enumerate_forest_faces(n):
            partition = forest_components(n, face)
            fibers[partition] = fibers.get(partition, 0) + 1
        for partition, size in fibers.items():
            product = 1
            for block in partition.blocks:
                product *= catalan(len(block) - 1)
            if size != product:
                return False, f"n={n}: fiber over {partition} has {size} faces"
    for n in range(2, nmax + 1):
        poset = build_cluster_poset(n)
        sizes = poset.whitney_second()
        signed = build_pp_poset(n).whitney_first()
        if sizes != [(-1) ** l * w for l, w in enumerate(signed)]:
            return False, f"n={n}: rank sizes {sizes}"
        betti = reduced_betti(poset.without_bottom())
        if betti != _betti_closed(n):
            return False, f"n={n}: cluster betti {betti}"
    return True, f"facet counts n<8, Whitney relation and top rank n<={nmax}"


def _verify_kdivisible(nmax: int, kmax: int) -> tuple[bool, str]:
    skipped = []
    for n in range(2, nmax + 1):
        for k in range(1, kmax + 1):
            if _kdivisible_refusal(n, k, long=True):
                skipped.append(f"({n},{k})")
                continue
            poset = build_ppk_poset(n, k)
            summary = _kdivisible_summary(n, k, poset)
            key = _kdivisible_mismatch(summary)
            if key:
                return False, f"(n,k)=({n},{k}): {key} {summary[key]}"
            if (n, k) == (3, 2):
                betti = reduced_betti(poset.without_bottom())
                if betti != _betti_closed(n, k):
                    return False, f"(3,2) betti {betti}"
    edelman = [(n, k) for n, k in ((2, 2), (3, 2), (2, 3)) if n <= nmax and k <= kmax]
    for n, k in edelman:
        sub = build_divisible_nc_poset(n, k)
        chain_poset = build_nck_poset(n, k)
        if len(sub) != fuss_catalan(n, k + 1):
            return False, f"(n,k)=({n},{k}): subposet size {len(sub)}"
        if sub.whitney_second() != chain_poset.whitney_second():
            return False, f"(n,k)=({n},{k}): subposet rank sizes"
        if not posets_isomorphic(sub, chain_poset):
            return False, f"(n,k)=({n},{k}): subposet not isomorphic"
    ran = ["k-divisible counts"] + ["Edelman subposets"] * bool(edelman)
    ran += ["homology"] * ((3, 2) in edelman)  # the Betti check at (3, 2)
    skips = f", {' '.join(skipped)} skipped over the --long budget" * bool(skipped)
    return True, f"{', '.join(ran)}, k<={kmax}{skips}"


def _maps_covers_onto_covers(
    source: FinitePoset, target: FinitePoset, fid: list[int]
) -> bool:
    """Whether the bijection of ids ``fid`` is an order isomorphism: between
    finite posets, exactly when it maps the covers onto the covers."""
    moved = sorted((fid[i], fid[j]) for i, j in source.cover_index_pairs())
    return moved == target.cover_index_pairs()


def _verify_permutahedron(nmax: int, kmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        comb = right_comb_subposet(n)
        faces = permutahedron_face_poset(n)
        fubini = sum(factorial(j) * stirling2(n, j) for j in range(1, n + 1))
        if not len(comb) == len(faces) == fubini:
            return False, f"n={n}: {len(comb)} vs {len(faces)} vs {fubini}"
        image = [elem.to_composition() for elem in comb.elements]
        if set(image) != set(faces.elements):
            return False, f"n={n}: composition witness not a bijection"
        fid = [faces.index[c] for c in image]
        if not _maps_covers_onto_covers(comb, faces, fid):
            return False, f"n={n}: composition witness breaks the order"
    return True, f"right comb matches composition face poset, n=2..{nmax}"


VERIFY_CHECKS: dict[str, Callable[[int, int], tuple[bool, str]]] = {
    "cardinality": _verify_cardinality,
    "whitney-second": _verify_whitney_second,
    "chain-formula": _verify_chain_formula,
    "mobius-whitney-first": _verify_mobius,
    "shelling": _verify_shelling_sweep,
    "homology-betti": _verify_homology,
    "characters": _verify_characters,
    "series": _verify_series,
    "k-trees": _verify_ktrees,
    "cluster": _verify_cluster,
    "k-divisible": _verify_kdivisible,
    "permutahedron": _verify_permutahedron,
}


def _run_verify_check(task: tuple[str, int, int]) -> tuple[str, bool, str]:
    name, n, k = task
    try:
        ok, detail = VERIFY_CHECKS[name](n, k)
    except Exception as exc:  # surface, never crash the sweep
        return name, False, f"raised {exc!r}"
    return name, ok, detail


def cmd_verify(args: argparse.Namespace) -> int:
    nmax, kmax = args.n, args.k
    _require_n(args, 2, 4, 5)
    _require(1 <= kmax <= 3, "need 1 <= k <= 3")
    _require(args.jobs >= 1, "need --jobs >= 1")
    tasks = [(name, nmax, kmax) for name in VERIFY_CHECKS]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported only here: multiprocessing adds about 1 MB to the memory
        # of every process that imports it.
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_verify_check, tasks)
    else:
        results = [_run_verify_check(task) for task in tasks]
    lines = []
    passed = 0
    for name, ok, detail in results:
        passed += ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if passed == len(results) else 1


# ----- argument parsing -----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkposet",
        description="Parking poset builds, tables, and verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="ground set size")
        p.add_argument("--output", metavar="PATH", help="write to a file")
        p.add_argument(
            "--long", action="store_true", help="unlock larger, slower sizes"
        )

    p = sub.add_parser("convert", help="translate between representations")
    p.add_argument("--from", dest="source", choices=REPRESENTATIONS, required=True)
    p.add_argument("--to", dest="target", choices=REPRESENTATIONS, required=True)
    p.add_argument(
        "--input",
        required=True,
        help="digit string for words, otherwise JSON text",
    )
    p.add_argument("--output", metavar="PATH", help="write to a file")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("poset", help="build and export a poset")
    common(p)
    p.add_argument("--which", choices=("parking", "nc"), default="parking")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("count", help="multichain count table")
    common(p)
    p.add_argument("--k", type=int, default=1, help="multichain length")
    p.add_argument("--l", type=int, default=None, help="restrict to one top rank")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("shelling", help="shelling verification report")
    common(p)
    p.set_defaults(func=cmd_shelling)

    p = sub.add_parser("homology", help="Betti or character tables")
    common(p)
    p.add_argument("--character", action="store_true", help="character table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("cluster", help="forest complex and cluster poset")
    common(p)
    p.add_argument("--format", choices=("csv", "json", "dot"), default="json")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("kdivisible", help="k-divisible chain poset")
    common(p)
    p.add_argument("--k", type=int, required=True, help="divisibility parameter")
    p.add_argument("--character", action="store_true", help="character table")
    p.add_argument("--format", choices=("csv", "json", "dot"))
    p.set_defaults(func=cmd_kdivisible)

    p = sub.add_parser("verify-all", help="full verification sweep")
    p.add_argument("--n", type=int, default=3, help="largest ground set size")
    p.add_argument("--k", type=int, default=2, help="largest chain parameter")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--output", metavar="PATH", help="write to a file")
    p.add_argument("--long", action="store_true", help="unlock larger, slower sizes")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
