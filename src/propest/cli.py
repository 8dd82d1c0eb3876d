"""Command-line front end.

Subcommands:

* ``simulate``  - run a Monte-Carlo estimator sweep and write a results CSV
* ``estimate``  - estimate a property from user-supplied count files
* ``coeffs``    - dump an amplified-estimator coefficient table as CSV
* ``selfcheck`` - run the numerical validation suite

Exit codes: 0 success, 1 usage error or invalid input (any ``ValueError``,
reported as one ``error:`` line), 2 runtime or check failure, or an output
file or standard output that cannot be written (one ``error:`` line naming
it).  All randomness flows from ``--seed`` (default 1729), so reruns are
byte-identical.

Count files (``estimate --counts/--counts2``) hold one ``symbol,count`` pair
a line, with exactly one comma.  Blank lines, an optional ``symbol,count``
header and spaces around either field are ignored.  Counts are integers in
1..2^63-1; l1/kl symbols are integer ids in 0..len(q)-1, other symbols are
opaque labels.  support_size and dist_to_uniform take at most ``--k``
distinct symbols over both files; more exit 1 (``count files hold N
distinct symbols, more than --k K``).  Count files and ``--q-file`` are
UTF-8, with or without a byte-order mark; a byte that is not exits 1 with
``FILE: line N: not UTF-8``.  One numpy pass reads all count files of a
request, their bodies joined (each line and field stripped first, unless
all are plain: ASCII, no padding, no blank line).  It checks the commas,
reads every count and l1/kl id of 1..18 digits (``int()`` reads the fields
when some field is not of that form), and ranks opaque labels in order of
first appearance over ``--counts`` then ``--counts2``, by their UTF-8 bytes
read as big-endian 8-byte words: one stable sort by the first word, and one
more for each later word that tells apart labels the words before it did
not.  Faults are reported as if the files were read one at a time, each
checked one rule at a time (commas, integer counts, count range, symbol ids,
duplicates): the first failing rule of the first failing file, at its first
offending line, numbered as in the file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import NoReturn

import numpy as np

from .benchmark import (
    ESTIMATORS,
    ExperimentConfig,
    _check_estimators,
    _fmt,
    _formats,
    realized_distribution,
    results_to_csv,
    run_experiment,
)
from .distributions import FAMILIES, SPLIT_MODES, Histogram, SplitSample
from .estimators import (
    EstimatorParams,
    amplified_estimate_detailed,
    build_coefficient_table,
    derive_params,
    empirical,
    modified_empirical,
)
from .properties import KINDS, PropertySpec

__all__ = ["main"]

DEFAULT_SEED = 1729

PROPERTY_ALIASES = {
    **{kind: kind for kind in KINDS},
    "coverage": "support_coverage",
    "uniformity": "dist_to_uniform",
    "l1": "l1_distance",
    "kl": "kl_divergence",
}


class UsageError(ValueError):
    """Bad flags or malformed input files."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefixes: `--s0` must not mean `--s0-mult`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _spec_from_args(kind: str, args) -> PropertySpec:
    given = {"k": args.k, "m": 5000.0 if args.m is None else args.m, "a": args.a,
             "q": _reference_from_args(args)}
    return PropertySpec(kind, **{name: given[name] for name in KINDS[kind].reads})


def _reference_from_args(args) -> np.ndarray | None:
    if args.q_file:
        vals = []
        for i, line in enumerate(map(str.strip, _read_text(args.q_file, "--q-file").split("\n")), start=1):
            if line:
                try:
                    vals.append(float(line))
                except ValueError:
                    raise UsageError(f"{args.q_file}: line {i}: probability {line!r} not a number") from None
                if not math.isfinite(vals[-1]):
                    raise UsageError(f"{args.q_file}: line {i}: probability {line!r} not finite")
        return np.array(vals)
    if args.q == "uniform":
        if args.k is None:
            raise UsageError("--q uniform requires --k")
        if args.k < 1:
            raise UsageError(f"--q uniform requires --k of at least 1, got {args.k}")
        return np.full(args.k, 1.0) / args.k
    return None


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo_s, hi_s, pts_s = text.split(":")
            lo, hi, pts = int(lo_s), int(hi_s), int(pts_s)
            if hi <= lo or pts < 2:
                raise ValueError("need lo < hi and points >= 2")
            grid = np.unique(np.round(np.geomspace(float(lo), float(hi), pts)))
            return tuple(int(n) for n in grid.tolist())  # Python ints: an int64 cast would wrap past 2^63
        return tuple(int(tok) for tok in text.split(","))
    except (ValueError, OverflowError, MemoryError) as exc:  # MemoryError: too many points to allocate
        raise UsageError(f"malformed --n-grid {text!r}: {exc}") from exc


def _read_text(path: str, what: str) -> str:
    """An input file's text: UTF-8, any leading byte-order mark dropped, line breaks as newlines."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:  # exc.object: the bytes read, after any byte-order mark
        line = exc.object[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise UsageError(f"{path}: line {line}: not UTF-8") from None


def _write_output(path: str, lines) -> None:
    """Write the strings ``lines`` to ``path``; an ``OSError`` in opening, writing or closing it names ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(lines)
    except OSError as exc:
        exc.filename = path
        raise


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _read_count_files(paths: list[str], spec: PropertySpec) -> tuple[list[tuple[np.ndarray, ...]], int | None]:
    """Parse count files (format in the module docstring) to int64 ``(ids, counts)`` each, and how many labels.

    l1/kl ids index q (``5``, ``05`` and ``+5`` are one symbol) and there are no labels (None); other
    symbols are labels, with ids by first appearance.  A fault is reported only if every file before
    its file passes every rule.
    """
    contents, bodies = [], []  # a body: the lines after any header, without the last line break
    for i, path in enumerate(paths):
        try:
            contents.append(text := _read_text(path, "counts file"))
        except UsageError:
            _read_count_files(paths[:i], spec)  # raises at a fault of an earlier file
            raise
        head, _, rest = text.lstrip().partition("\n")  # head: the first line that is not blank
        bodies.append((rest if head.rstrip().lower().replace(" ", "") == "symbol,count" else text).removesuffix("\n"))
    for stripped in (False, True):
        joined = "\n".join(filter(None, bodies))
        b = np.frombuffer(f"\n{joined}\n".encode(), dtype=np.uint8)  # a line break before each line and after the last
        nl = b == ord("\n")
        # Plain bodies (ASCII, no byte up to 0x20 but line breaks, no blank line) are read as they are.
        if stripped or joined.isascii() and np.count_nonzero(b <= ord(" ")) == np.count_nonzero(nl) \
                and not (nl[1:] & nl[:-1]).any():
            break
        bodies = ["\n".join(",".join(map(str.strip, line.split(","))) for line in body.split("\n") if line.strip())
                  for body in bodies]
    if not joined:
        return [(np.zeros(0, dtype=np.int64),) * 2] * len(paths), 0 if spec.q is None else None
    # The lines up to each body's end: the line breaks up to the one after its last byte.
    ends = [int(np.count_nonzero(nl[1:stop + 1])) for stop in np.cumsum([len(s.encode()) + bool(s) for s in bodies])]

    def fail(flags, texts, message) -> NoReturn:
        """Report ``message(texts[k])`` at the first flagged line ``k``, unless a file before its file fails."""
        k = next(i for i, bad in enumerate(flags) if bad)
        f = sum(end <= k for end in ends)  # the file of line k
        _read_count_files(paths[:f], spec)
        # A body's lines are its file's last lines that are not blank.
        line = [i for i, s in enumerate(contents[f].split("\n"), start=1) if s.strip()][k - ends[f]]
        raise UsageError(f"{paths[f]}: line {line}: {message(texts[k])}")

    # One comma a line: line breaks and commas must alternate, from a line break to a line break.
    seps = np.flatnonzero(nl | (b == ord(",")))
    at_break = nl[seps]
    if len(seps) % 2 == 0 or not at_break[0::2].all() or at_break[1::2].any():
        lines = joined.split("\n")
        fail((line.count(",") != 1 for line in lines), lines, lambda s: "expected 'symbol,count'")
    breaks, commas, starts = seps[0::2], seps[1::2], seps[0:-1:2] + 1  # symbols: starts to commas

    def column(j: int) -> list[str]:  # the symbols (j 0) or counts (1) as text
        return joined.replace("\n", ",").split(",")[j::2]

    def parse(j, starts, stops, lo, hi, not_int, out_of_range) -> np.ndarray:
        """Column ``j`` as int64, failing at the first field that is not an integer in ``lo..hi``."""
        try:
            values = _digits(b, starts, stops)
            if values is None:  # `+7`, `1_000`, 19 digits or a fault
                values = np.array(list(map(int, column(j))), dtype=np.int64)
            if values.min() >= lo and values.max() <= hi:
                return values
        except ValueError:
            fail((not _is_int(s) for s in column(j)), column(j), not_int)
        except OverflowError:  # beyond int64, so beyond hi
            pass
        fail((not lo <= int(s) <= hi for s in column(j)), column(j), out_of_range)

    counts = parse(1, commas + 1, breaks[1:], 1, 2**63 - 1,
                   lambda s: f"count {s!r} not an integer", lambda s: f"count {s!r} outside 1..2^63-1")
    if spec.q is None:
        keys = _keys(b, starts, commas)
        # A stable sort of every file's keys by their first column ranks the labels by first appearance.  A
        # later column sorts them again, within the runs of keys equal so far, only if it splits such a run:
        # a full sort of every column would cost more than a string sort on files in label order.
        order = np.lexsort(keys[:1])
        ranked = keys[0][order]
        begins = np.append(True, ranked[1:] != ranked[:-1])  # where a run of equal keys begins in sorted order
        for key in keys[1:]:
            ranked = key[order]
            if ((ranked[1:] != ranked[:-1]) & ~begins[1:]).any():
                order = order[np.lexsort((ranked, np.cumsum(begins)))]
                ranked = key[order]
            begins[1:] |= ranked[1:] != ranked[:-1]
        at = order[begins]  # each key's first appearance: equal keys keep their file order
        first = np.zeros(len(order), dtype=bool)
        first[at] = True
        x = np.empty(len(order), dtype=np.int64)
        x[order] = (np.cumsum(first)[at] - 1)[np.cumsum(begins) - 1]
        n_labels = len(at)
    else:
        x, n_labels = parse(0, starts, commas, 0, len(spec.q) - 1,
                          lambda s: f"{spec.kind} requires integer symbol ids indexing q",
                          lambda s: f"{spec.kind} symbol ids must lie in 0..{len(spec.q) - 1}, the indices of q"), None
    for i, j in zip([0, *ends], ends):  # each file's lines
        if np.bincount(x[i:j], minlength=1).max() > 1:  # flag the file's lines whose id came before in it
            repeated = np.zeros(len(x), dtype=bool)
            repeated[i:j] = np.bincount(np.unique(x[i:j], return_index=True)[1], minlength=j - i) == 0
            fail(repeated, column(0), lambda s: f"duplicate symbol {s!r}")
    return [(x[i:j], counts[i:j]) for i, j in zip([0, *ends], ends)], n_labels


def _digits(b: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The fields ``b[starts[i]:ends[i]]`` as int64 if each is 1..18 ASCII digits, else None."""
    lengths = ends - starts
    if lengths.min() < 1 or (width := int(lengths.max())) > 18:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for p in range(width, 0, -1):  # the digit p places before each field's end, 0 before its start
        digit = b.take(ends - p, mode="clip") - ord("0")  # uint8, so a byte below '0' wraps above 9
        digit[lengths < p] = 0
        if (digit > 9).any():
            return None
        values *= 10
        values += digit
    return values


# Masks that keep a word's first m bytes, m = 0..8.
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - m)) for m in range(9)], dtype=np.uint64)


def _keys(b: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[np.ndarray]:
    """Keys of the fields ``b[starts[i]:ends[i]]`` as columns, the first primary: equal keys, equal bytes.

    A key is the field's bytes and the byte after it (the comma that ends a
    symbol), as big-endian ``uint64`` words: column ``j`` holds the 8 bytes
    from each field's start plus ``8 j``, zeroed past the key's end.  The
    comma is the key's last nonzero byte, so ``a`` and ``a\\x00`` differ.
    Big-endian words sort as the bytes do, so a file written in symbol order
    stays in runs.  When the words would take over 8 bytes a byte of ``b``
    (a few long labels), the key is one column of those bytes, one ``bytes``
    object each in an object array.
    """
    sizes = ends - starts + 1
    words = -(-int(sizes.max()) // 8)
    if len(starts) * words > len(b):
        data = b.tobytes()
        return [np.array([data[i:j] for i, j in zip(starts.tolist(), (ends + 1).tolist())], dtype=object)]
    padded = np.concatenate([b, np.zeros(8 * words, dtype=np.uint8)])  # no word reads past b's end
    windows = np.ndarray(len(padded) - 7, dtype=">u8", buffer=padded, strides=(1,))  # the 8 bytes from each byte
    return [windows[starts + 8 * j] & _KEEP.take(sizes - 8 * j, mode="clip") for j in range(words)]


def _histogram(read: tuple[np.ndarray, np.ndarray], spec: PropertySpec, n_labels: int | None) -> Histogram:
    x, counts = read
    array = np.zeros(n_labels if spec.q is None else len(spec.q), dtype=np.int64)
    array[x] = counts
    return Histogram(array)


# simulate's family flags, by their names in ``args``: the family whose parameter each sets.
_FAMILY_FLAGS = {record.flag[2:].replace("-", "_"): family for family, record in FAMILIES.items() if record.flag}

_KINDS_READING = {name: {kind for kind, record in KINDS.items() if name in record.reads} for name in "kmaq"}

# The choice that decides whether each optional flag is read, and the values
# of it that read the flag.  A command that passes no such choice to
# _check_read reads the flag whatever was chosen: simulate always reads --k
# (the support size), coeffs every tuning flag.  Unlisted flags are read
# whenever their command has them.  A flag counts as given when it is not
# None, so none of these has a default of its own (see _library_flags).
READ_BY = {
    "k": ("--property/--q", _KINDS_READING["k"] | {"uniform"}),
    "m": ("--property", _KINDS_READING["m"]),
    "a": ("--property", _KINDS_READING["a"]),
    **dict.fromkeys(("q", "q_file", "q_x"), ("--property", _KINDS_READING["q"])),
    **{name: ("--dist", {family}) for name, family in _FAMILY_FLAGS.items()},
    **dict.fromkeys(("counts2", "alpha", "s0_mult", "t", "s0", "v_max", "split_mode", "t_decay"),
                    ("--estimator", {"amplified"})),
    "rate": ("--estimator", {"amplified", "modified_empirical"}),
    "fixed_size": ("--estimator", set(ESTIMATORS) - {"amplified"}),
}


def _check_read(args, choices: dict) -> None:
    """Reject a given flag that no chosen value reads, or ``--alpha`` or ``--s0-mult`` without the other.

    ``choices`` maps each choice to its values.
    """
    for name, (choice, readers) in READ_BY.items():
        if choice in choices and getattr(args, name, None) is not None and not readers & choices[choice]:
            chosen = ",".join(sorted(filter(None, choices[choice])))
            raise UsageError(f"{choice} {chosen} does not read --{name.replace('_', '-')}")
    if (args.alpha is None) != (args.s0_mult is None):
        raise UsageError("--alpha and --s0-mult must be given together")


def _library_flags(args) -> dict:
    """``--split-mode`` and ``--t-decay`` if given; absent ones keep the library's defaults."""
    return {name: v for name in ("split_mode", "t_decay") if (v := getattr(args, name, None)) is not None}


def _require_tuning(kind: str, flags: str) -> None:
    """Refuse an amplified run of ``kind`` without tuning flags when the kind has no preset."""
    if KINDS[kind].preset is None:
        raise UsageError(f"{kind} has no preset tuning; amplified needs {flags}")


def _amplified_params_from_args(args, total_n: float, spec: PropertySpec) -> EstimatorParams:
    if args.t is not None or args.s0 is not None:
        if args.t is None or args.s0 is None:
            raise UsageError("--t and --s0 must be given together")
        if args.alpha is not None:
            raise UsageError("--t/--s0 and --alpha are mutually exclusive")
        return EstimatorParams(total_n, args.t, args.s0, v_max=args.v_max, **_library_flags(args))
    if args.alpha is None:
        _require_tuning(spec.kind, "--alpha and --s0-mult, or --t and --s0")
    return derive_params(
        total_n,
        spec,
        preset=args.alpha is None,
        alpha=args.alpha,
        s0_mult=args.s0_mult,
        v_max=args.v_max,
        **_library_flags(args),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    kind = PROPERTY_ALIASES[args.property]
    estimators = tuple(tok.strip() for tok in args.estimators.split(","))
    _check_estimators(estimators)  # before _check_read blames a flag on an unknown name
    _check_read(args, {"--property": {kind}, "--dist": {args.dist}, "--estimator": set(estimators)})
    if "amplified" in estimators and args.alpha is None:
        _require_tuning(kind, "--alpha and --s0-mult")
    spec = _spec_from_args(kind, args)
    default_k = len(spec.q) if spec.q is not None else 1000 if spec.kind == "support_coverage" else 10000
    k = args.k if args.k is not None else default_k
    if args.n_grid is not None:
        n_grid = _parse_n_grid(args.n_grid)
    elif spec.kind == "support_coverage":
        n_grid = (1000, 1500, 2000, 2500, 3000)
    else:
        n_grid = _parse_n_grid("1000:100000:10")

    cfg = ExperimentConfig(
        spec=spec,
        family=args.dist,
        k=k,
        n_grid=n_grid,
        trials=args.trials,
        seed=args.seed,
        estimators=estimators,
        dist_params={FAMILIES[family].param: v for name, family in _FAMILY_FLAGS.items()
                     if (v := getattr(args, name)) is not None},
        poissonized=not args.fixed_size,
        alpha=args.alpha,
        s0_mult=args.s0_mult,
        **_library_flags(args),
    )

    rows = run_experiment(cfg, threads=args.threads)

    if args.dump_dist:
        _write_output(args.dump_dist, (_fmt(p) + "\n" for p in realized_distribution(cfg).probs))
    _write_output(args.out, [results_to_csv(rows)])

    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(
            f"warning: cell n={row.n} estimator={row.estimator} failed: {row.error}",
            file=sys.stderr,
        )
    if failed and args.strict:
        return 2
    return 0


def cmd_estimate(args) -> int:
    kind = PROPERTY_ALIASES[args.property]
    _check_read(args, {"--property": {kind}, "--property/--q": {kind, args.q}, "--estimator": {args.estimator}})
    if args.rate is None and args.estimator in READ_BY["rate"][1]:
        raise UsageError(f"{args.estimator} requires --rate")
    spec = _spec_from_args(kind, args)
    params = _amplified_params_from_args(args, args.rate, spec) if args.estimator == "amplified" else None
    paths = [path for path in (args.counts, args.counts2) if path is not None]
    reads, n_labels = _read_count_files(paths, spec)
    # A stream of rate n totals Poisson(n) counts; a rate <= 0 is the estimator's to refuse.
    if args.rate is not None and args.rate > 0:
        for path, (_, counts) in zip(paths, reads):
            if counts.sum(dtype=np.float64) > args.rate + 10 * math.sqrt(args.rate):
                raise UsageError(f"{path}: total count {sum(counts.tolist())} is more than 10 standard "
                                 f"deviations above --rate {_fmt(args.rate)}")
    if spec.k is not None and n_labels > spec.k:
        raise UsageError(f"count files hold {n_labels} distinct symbols, more than --k {spec.k}")
    hists = [_histogram(read, spec, n_labels) for read in reads]
    first, second = hists[0], hists[-1]
    lines: list[str] = [f"property={spec.kind}", f"estimator={args.estimator}"]

    if args.estimator == "empirical":
        value = empirical(first, spec)
    elif args.estimator == "modified_empirical":
        value = modified_empirical(first, args.rate, spec)
        lines.append(f"rate={_fmt(args.rate)}")
    else:  # amplified
        split_mode = "two_stream" if args.counts2 is not None else "shared"
        if split_mode == "shared":
            print(
                "warning: no --counts2 given; reusing the first stream for the "
                "small/large split (shared mode, streams fully dependent)",
                file=sys.stderr,
            )
        sample = SplitSample(first=first, second=second, rate=float(args.rate))
        detail = amplified_estimate_detailed(sample, spec, params)
        value = detail.value
        lines.append(f"split_mode={split_mode}")
        for obj, skip in ((params, "v_max"), (detail, "value")):  # the tuning, then the diagnostics
            lines += [f"{name}={write(getattr(obj, name))}" for name, write in _formats(type(obj), skip).items()]

    lines.insert(0, f"estimate={_fmt(value)}")
    print("\n".join(lines))
    return 0


def cmd_coeffs(args) -> int:
    kind = PROPERTY_ALIASES[args.property]
    _check_read(args, {"--property": {kind}, "--property/--q": {kind, args.q}})
    spec = _spec_from_args(kind, args)
    if spec.q is not None and args.q_x is None:
        raise UsageError(f"coeffs --property {kind} requires --q-x")
    params = _amplified_params_from_args(args, args.rate, spec)
    table = build_coefficient_table(spec, params, q_x=args.q_x)
    # Completed before the file opens, so a table that fails leaves no file.
    values, clamped = table.values, table.clamped
    rows = (f"{v},{_fmt(values[v])},{int(clamped[v])}\n" for v in range(1, table.v_max + 1))
    _write_output(args.out, ["v,h_v_times_vfact,clamped\n", *rows])
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck  # only here: no other command needs its decimal import

    results = run_selfcheck(deep=args.deep)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_property_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--property",
        required=True,
        choices=sorted(PROPERTY_ALIASES),
        help="property to estimate (aliases: coverage, uniformity, l1, kl)",
    )
    p.add_argument("--k", type=int, help="support-size normalizer / symbol count")
    p.add_argument("--m", type=float, help="coverage horizon (support_coverage)")
    p.add_argument("--a", type=float, help="power-sum exponent, must be > 1")
    ref = p.add_mutually_exclusive_group()
    ref.add_argument("--q-file", help="reference distribution, one probability per line")
    ref.add_argument("--q", choices=["uniform"], help="reference shorthand (needs --k)")


def _add_tuning_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="manual tuning: t = log(n)^(1-alpha) + 1")
    p.add_argument("--s0-mult", type=float, help="manual tuning: s0 = round(s0_mult * log(n)^0.2)")
    p.add_argument(
        "--t-decay",
        action=argparse.BooleanOptionalAction,
        help="decay the amplification per count when building coefficients",
    )


def _add_explicit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, help="explicit amplification parameter")
    p.add_argument("--s0", type=int, help="explicit small/large threshold")
    p.add_argument("--v-max", type=int, help="coefficient table size (default max(4r, 200)); "
                   "estimate reads no count past u_max, so there it can only shorten the table")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``propest`` parser, built on first use and shared by every :func:`main` call."""
    parser = _Parser(prog="propest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo estimator sweep, writes a results CSV")
    _add_property_flags(sim)
    sim.add_argument("--dist", required=True, choices=FAMILIES, help="distribution family")
    sim.add_argument("--n-grid", help="'1000,3162,10000' or 'lo:hi:points' (log-spaced)")
    sim.add_argument("--trials", type=int, default=100, help="trials per cell (default 100)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})")
    sim.add_argument(
        "--estimators",
        default="amplified,empirical",
        help=f"comma list from {','.join(ESTIMATORS)}",
    )
    sim.add_argument("--split-mode", choices=SPLIT_MODES)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--threads", type=int, default=1,
                     help="trial parallelism, at most one thread per CPU (same output for any value)")
    sim.add_argument("--strict", action="store_true", help="exit 2 if any cell fails")
    sim.add_argument(  # default None, so that _check_read sees whether it was given
        "--fixed-size", action="store_true", default=None, help="plug-in draws use exactly n samples"
    )
    sim.add_argument("--dump-dist", help="also write the probability vector, one per line")
    for family, record in FAMILIES.items():
        if record.flag:
            sim.add_argument(record.flag, type=float, help=f"{family} {record.param} (default {record.default:g})")
    _add_tuning_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate a property from count files")
    _add_property_flags(est)
    est.add_argument("--counts", required=True, help="first stream, lines of 'symbol,count'")
    est.add_argument("--counts2", help="second stream; absent means shared mode")
    est.add_argument("--rate", type=float, help="Poisson rate n behind the counts")
    est.add_argument(
        "--estimator",
        default="amplified",
        choices=["empirical", "modified_empirical", "amplified"],
    )
    _add_tuning_flags(est)
    _add_explicit_flags(est)
    est.set_defaults(func=cmd_estimate)

    coe = sub.add_parser("coeffs", help="dump a coefficient table as CSV")
    _add_property_flags(coe)
    coe.add_argument("--rate", type=float, required=True, help="Poisson rate n")
    coe.add_argument("--q-x", type=float, help="reference mass for l1/kl tables")
    coe.add_argument("--out", required=True, help="output CSV path")
    _add_tuning_flags(coe)
    _add_explicit_flags(coe)
    coe.set_defaults(func=cmd_coeffs)

    chk = sub.add_parser("selfcheck", help="run the numerical validation suite")
    chk.add_argument("--deep", action="store_true", help="extended parameter grids")
    chk.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # input files raise UsageError and output files set filename
        if exc.filename is None:  # standard output: its buffer goes to the null device, not to a flush at exit
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {exc.filename or 'standard output'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
