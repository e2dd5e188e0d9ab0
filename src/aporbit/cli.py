"""Command-line entry point.

Subcommands wire the library pipeline to files: `run` (orbit, chain and
trig form), `verify` (error-bound report), `ladder` (multi-resolution
diagnostics), `ar` (recurrence decomposition), `census` (period
statistics), `validate-map` (range check).  Reports are JSON-first with
CSV side channels for plotting; `_Out.write_csv` writes every CSV in
blocks of CSV_BLOCK rows, printing each distinct value of a block once
and formatting the block with one `%`, so a CSV adds a fixed amount to a
command's peak memory.  A CSV whose rows repeat from some row on is
given that periodic tail: the row texts of one period are printed once
and cycled.  The trig curve's 3L+1 rows repeat its L-row period, and
orbit.csv's rows repeat from the row where the orbit has reached an exact
cycle of P samples, with period lcm(P, L) for the chain's period L,
when that is at most CSV_BLOCK rows.  `_Out.write_json` writes the text
of `json.dumps(document, indent=2)`, built in full before it touches the
file.  The standard library encodes all of it but a top-level list of
number rows (trig.json's `a` and `b`), which the C encoder takes
JSON_BLOCK rows at a time and whose text is spliced in block by block,
so a large trig.json is held in memory once.
`_Out` refuses an existing artifact without --force; with it, the old
file (or symlink) is unlinked and a new one created.
Exit codes: 0 ok, 2 pipeline failure, 3 configuration error, which
includes a usage error, a `--y0` whose length is not the map's d, a
`--spec` whose z0 length is not that of its p, and a `--map`, `--spec`
or `--out` path that cannot be read or made.

`build_parser` builds the argument parser once per process and returns
that same parser on every later call.  `main` parses each call into a
fresh namespace and calls the module's `cmd_<command>` as it stands at
that moment, so a replaced or wrapped `cmd_run` is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import analysis, armodel, maps, orbit, spectral
from .core import GridSpec, Point
from .errors import AporbitError, DimensionMismatch

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PIPELINE = 2
EXIT_CONFIG = 3

# Rows per block when a CSV is written: a block's strings are held until it
# is written, so larger blocks raise the peak memory of a long `run`.
CSV_BLOCK = 512


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error, not a SystemExit(2)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """An argparse `type=`: an integer of at least `low`, so that a count
    out of range is refused before a command makes its output directory."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_list(text: str, convert, noun: str) -> list:
    # comma-separated values, each converted; a bad one names the `noun`
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {noun} {text!r}: {exc}") from exc


def _load_map(path: str) -> maps.MapDefinition:
    # --map takes a file path or an inline JSON definition
    if path.lstrip().startswith("{"):
        try:
            return maps.map_from_json(json.loads(path))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError, AporbitError) as exc:
            raise ConfigError(f"bad inline map definition: {exc}") from exc
    if not os.path.exists(path):
        raise ConfigError(f"map file not found: {path}")
    try:
        return maps.load_map(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError, AporbitError) as exc:
        raise ConfigError(f"bad map file {path}: {exc}") from exc


def _initial_point(args, m: maps.MapDefinition) -> Point:
    coords = _parse_list(args.y0, float, "vector")
    if len(coords) != m.d:
        raise ConfigError(f"--y0 needs d={m.d} coordinates, got {len(coords)}")
    return Point(coords)


def _load_ar_spec(path: str) -> tuple[maps.MapDefinition, Point]:
    # {"p": [...], "z0": [...]}: the map ar_map(p) and the point z0; a z0
    # outside the box (NaN included) is a pipeline error, as a --y0 is
    if not os.path.exists(path):
        raise ConfigError(f"spec file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
        m = maps.ar_map(data["p"])
        z0 = [maps._number(v, f"initial value z({-i})") for i, v in enumerate(data["z0"])]
        if len(z0) != m.d:
            raise ValueError(f"{len(z0)} initial values for order {m.d}")
    except (OSError, ValueError, KeyError, TypeError, DimensionMismatch) as exc:
        raise ConfigError(f"bad spec file {path}: {exc}") from exc
    return m, Point(z0)


class _Out:
    """Output directory guard: never overwrite without --force.

    A command names every artifact it will write when it makes the guard,
    before any work, so a refusal leaves the directory as it was.  An
    artifact replaces what is at its path by unlinking it and creating a
    new file, so a symlink there is replaced, not written through."""

    def __init__(self, directory: str, force: bool, names):
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {directory} as the output directory: {exc}") from exc
        for name in names:
            target = self.path(name)
            if os.path.lexists(target) and not force:
                raise ConfigError(f"{target} exists; pass --force to overwrite")

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _create(self, name: str, mode: str = "x"):
        # Unlinking first also skips the flush on close that truncating a
        # non-empty file costs on some file systems.
        target = self.path(name)
        try:
            os.unlink(target)
        except FileNotFoundError:
            pass
        return open(target, mode)

    def write_json(self, name: str, payload: dict, config: dict) -> str:
        """Write `json.dumps(document, indent=2)` plus a newline, where the
        document is the schema version, the config and then the payload.

        The document is encoded with its top-level number rows set to None,
        and each such value's text, built a block at a time by `_rows_parts`,
        takes the place of its `\\n  "<key>": null`: an encoded string holds
        no raw newline and a nested line is indented deeper, so that text
        occurs once.  The parts are written one by one, never joined, and
        all of them are built before the file is touched, so a payload that
        cannot be encoded raises and leaves what was at the path alone."""
        document = {"schema_version": SCHEMA_VERSION, "config": config}
        document.update(payload)
        rows = {}
        if all(isinstance(key, str) for key in document):  # a key 1 would print as "1"
            rows = {key: value for key, value in document.items() if _is_rows(value)}
        text = json.dumps({**document, **dict.fromkeys(rows)}, indent=2)
        parts = []
        for key, value in rows.items():
            line = f"\n  {json.dumps(key)}: "
            head, _, text = text.partition(line + "null")
            parts += head, line
            _rows_parts(value, parts)
        parts += text, "\n"
        with self._create(name, "xb") as fh:
            fh.writelines(map(str.encode, parts))  # the text is ASCII
        return fh.name

    def write_csv(self, name: str, header, start: int, stop: int, block, tail=None) -> str:
        """Write `header`, then the rows [t, *block(a, b)[t - a]] for
        t = start..stop-1, where block(a, b) returns the rows for t = a..b-1
        as a 2-d float64 or int64 array; a..b-1 lie within one block of
        CSV_BLOCK rows counted from `start`.  A value prints as the repr of
        its Python float or int, in csv.writer's format (see `_printed`),
        and each block's bytes are one `%` of a flat tuple of its cells.

        `tail` = (t0, L), t0 >= start, says that the rows from t0 on repeat
        with period L.  Rows t0..t0+L-1 are printed once, each to its own text, as
        their blocks come, and every row from t0 on is written from those
        texts: past them, writing holds one block."""
        t0, L = tail if tail is not None else (stop, 1)
        texts = []  # the texts of rows t0.., without t

        def text(a, b):
            printed = _printed(block(a, b))
            n, width = printed.shape
            cells = np.empty((n, width + 1), dtype=object)
            cells[:, 0] = range(a, b)
            cells[:, 1:] = printed
            del printed  # the cells hold what is printed
            return (b"%d" + b",%s" * width + b"\r\n") * n % tuple(cells.ravel())

        def cycled(a, b):
            if len(texts) < min(L, b - t0):  # this block's rows of the first period
                printed = _printed(block(t0 + len(texts), min(b, t0 + L)))
                n, width = printed.shape
                texts.extend(((b",%s" * width + b"\r\n") * n
                              % tuple(printed.ravel())).splitlines(keepends=True))
            n, offset = b - a, (a - t0) % L
            cells = [None] * (2 * n)
            cells[0::2] = range(a, b)
            cells[1::2] = itertools.islice(itertools.cycle(texts), offset, offset + n)
            return b"%d%s" * n % tuple(cells)

        with self._create(name, "xb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for a in range(start, stop, CSV_BLOCK):
                b = min(a + CSV_BLOCK, stop)
                if a < t0:
                    fh.write(text(a, min(b, t0)))
                if b > t0:
                    fh.write(cycled(max(a, t0), b))
        return fh.name


def _printed(values: np.ndarray) -> np.ndarray:
    """The CSV bytes of each entry of a float64 or int64 array, as an object
    array of its shape: the repr of its Python float or int.  Each distinct
    value (by bit pattern, so -0.0 and 0.0 stay apart) is printed once."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = ",".join(map(repr, keys.view(values.dtype).tolist())).encode()
    return np.array(texts.split(b","), dtype=object)[inverse.reshape(values.shape)]


# A top-level value of number rows (`_is_rows`: the `a` and `b` arrays of
# trig.json) goes through the C encoder (`json.dumps` without indent)
# JSON_BLOCK rows at a time, and each block's compact text is then
# re-indented: no number token holds ", " or "], [".  The encoder holds a
# string for every token until it joins them, so whole arrays in one call
# once more than doubled the peak of writing trig.json.
JSON_BLOCK = 256
_FLAT = frozenset({int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})


def _is_rows(o) -> bool:
    """Whether `o` is a non-empty list or tuple of non-empty lists or
    tuples of numbers, bools and None."""
    return (type(o) in _ROWS and bool(o) and _ROWS.issuperset(map(type, o)) and all(o)
            and _FLAT.issuperset(map(type, itertools.chain.from_iterable(o))))


def _rows_parts(o, parts: list) -> None:
    """Append the text that `json.dumps(..., indent=2)` gives the number
    rows `o` as a top-level value, one part per JSON_BLOCK rows."""
    row_separator = "\n    ],\n    [\n      "
    parts.append("[\n    [\n      ")
    for a in range(0, len(o), JSON_BLOCK):
        if a:
            parts.append(row_separator)
        text = json.dumps(o[a:a + JSON_BLOCK])[2:-2]
        parts.append(text.replace("], [", row_separator).replace(", ", ",\n      "))
    parts.append("\n    ]\n  ]")


def _resolved_config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_run(args) -> int:
    m = _load_map(args.map)
    y0 = _initial_point(args, m)
    g = GridSpec(K=args.K, d=m.d)
    horizon = args.horizon if args.horizon is not None else orbit.default_horizon(g)
    out = _Out(args.out, args.force, ["chain.json", "trig.json"]
               + ([] if args.json_only else ["orbit.csv"])
               + (["trig_curve.csv"] if args.emit_curve else []))
    config = _resolved_config(args, ("map", "y0", "K", "horizon", "out"))
    config["horizon"] = horizon

    orb, shadow, table, chain = orbit.run_pipeline(m, y0, g, horizon)
    form = spectral.fit_trig(chain)
    summary = chain.summary()
    summary["N"] = table.n_states
    summary["conflicts"] = len(table.conflicts)
    summary["shadow_periodic"] = orbit.shadow_periodicity(shadow)

    if not args.json_only:
        def rows(a, b):
            return np.hstack([orb.values[a:b], shadow[a:b].nodes(), chain.values(a, b - 1)])

        header = (
            ["t"]
            + [f"y_{i+1}" for i in range(m.d)]
            + [f"ybar_{i+1}" for i in range(m.d)]
            + [f"ystar_{i+1}" for i in range(m.d)]
        )
        # From t_p the orbit repeats its last P rows bit for bit, and so does
        # the shadow, whose state at t_p is thus a repeat: the chain has
        # closed by then and repeats its period L.
        period, tail = math.lcm(orb.lag or 1, chain.period), None
        if orb.lag is not None and period <= CSV_BLOCK:
            tail = (orb.repeats_from(), period)
        out.write_csv("orbit.csv", header, 0, horizon + 1, rows, tail)
    out.write_json("chain.json", summary, config)
    out.write_json("trig.json", form.to_json(), config)
    if args.emit_curve:
        T, L = chain.pre_period, chain.period
        curve = spectral.eval_trig_range(form, T, T + L - 1)
        out.write_csv("trig_curve.csv", ["t"] + [f"v_{i+1}" for i in range(m.d)],
                      T, T + 3 * L + 1, lambda a, b: curve[a - T : b - T], (T, L))
    print(f"run: T={chain.pre_period} L={chain.period} N={table.n_states} "
          f"conflicts={len(table.conflicts)} -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    m = _load_map(args.map)
    y0 = _initial_point(args, m)
    out = _Out(args.out, args.force,
               ["verify.json"] + ([] if args.json_only else ["verify.csv"]))
    lip = maps.estimate_lipschitz(m, samples=args.samples, seed=args.seed)
    # only a sampled gamma draws from the seed, so only it records the draw
    drawn = ("seed", "samples") if lip.method == "sampled" else ()
    config = _resolved_config(args, ("map", "y0", "K", "horizon", *drawn, "out"))
    report = analysis.verify_error_bound(m, y0, args.K, args.horizon, lipschitz=lip)
    out.write_json("verify.json", report.to_json(), config)
    if not args.json_only:
        out.write_csv("verify.csv", ["t", "actual", "bound"], 0, args.horizon + 1,
                      lambda a, b: np.column_stack([report.actual[a:b], report.bound[a:b]]))
    status = "pass" if report.passed else "VIOLATION"
    if report.last_finite_t is not None:
        status += f" through t={report.last_finite_t} (the bound is inf after it)"
    print(f"verify: {status} worst_ratio={report.worst_ratio:.3e} "
          f"gamma={report.gamma:.6g} ({report.gamma_method}) "
          f"conflicts={report.conflicts}")
    return EXIT_OK


def cmd_ladder(args) -> int:
    m = _load_map(args.map)
    y0 = _initial_point(args, m)
    Ks = _parse_list(args.Ks, int, "integer list")
    if len(Ks) < 2:
        raise ConfigError("need at least two resolutions in --Ks")
    analysis.check_resolutions(Ks)
    for option, value in (("--budget", args.budget), ("--tolerance", args.tolerance)):
        if not value >= 0.0:  # negative or NaN
            raise ConfigError(f"{option} must be >= 0, got {value!r}")
    out = _Out(args.out, args.force, ["ladder.json"])
    lip = maps.estimate_lipschitz(m, seed=args.seed)
    drawn = ("seed",) if lip.method == "sampled" else ()
    config = _resolved_config(
        args, ("map", "y0", "Ks", "horizon", *drawn, "budget", "tolerance", "out")
    )
    report = analysis.tail_convergence(
        m, y0, Ks, args.horizon, tolerance=args.tolerance
    )
    condition = analysis.check_convergence_condition(
        report.plan, lip.gamma, args.budget
    )
    payload = report.to_json()
    payload["condition"] = condition.to_json()
    payload["gamma"] = lip.to_json()
    out.write_json("ladder.json", payload, config)
    print(f"ladder: chain_sups={[f'{s:.3e}' for s in report.chain_sups]} "
          f"consistent={report.consistent}")
    return EXIT_OK


def cmd_ar(args) -> int:
    m, y0 = _load_ar_spec(args.spec)
    out = _Out(args.out, args.force,
               ["ar.json"] + ([] if args.json_only else ["ar_curve.csv"]))
    config = _resolved_config(args, ("spec", "horizon", "out"))
    roots = armodel.characteristic_roots(m)
    verdict = armodel.classify(roots)
    payload = {"roots": roots.to_json(), "classification": verdict}
    if verdict == "bounded":
        dec = armodel.solve_coefficients(m, y0, roots)
        report = armodel.verify_decomposition(m, y0, dec, args.horizon)
        payload["decomposition"] = dec.to_json()
        payload["report"] = report.to_json()
        if not args.json_only:
            curve = np.column_stack([report.z, report.ap, report.R])
            out.write_csv("ar_curve.csv", ["t", "z", "ap", "R"], 0, args.horizon + 1,
                          lambda a, b: curve[a:b])
    out.write_json("ar.json", payload, config)
    print(f"ar: d={m.d} {verdict} roots="
          + " ".join(f"{mu:.6g}(x{m})" for mu, m in roots.roots))
    return EXIT_OK


def cmd_census(args) -> int:
    out = _Out(args.out, args.force,
               ["census.json"] + ([] if args.json_only else ["census.csv"]))
    config = _resolved_config(args, ("d", "K", "n", "seed", "generator", "out"))
    report = orbit.period_census(
        d=args.d,
        K=args.K,
        ensemble=args.n,
        seed=args.seed,
        generator=args.generator,
    )
    out.write_json("census.json", report.to_json(), config)
    if not args.json_only:
        pairs = np.array(report.pairs, dtype=np.int64).reshape(-1, 2)
        out.write_csv("census.csv", ["sample_id", "T", "L"], 0, len(pairs),
                      lambda a, b: pairs[a:b])
    stats = report.to_json()
    print(f"census: mean_L={stats['mean_L']:.3f} max_L={stats['max_L']} "
          f"of state_count={stats['state_count']}")
    return EXIT_OK


def cmd_validate_map(args) -> int:
    m = _load_map(args.map)
    out = _Out(args.out, args.force, ["validate.json"])
    config = _resolved_config(args, ("map", "samples", "seed", "out"))
    report = maps.validate_range(m, samples=args.samples, seed=args.seed)
    out.write_json("validate.json", report.to_json(), config)
    print(f"validate-map: {'pass' if report.passed else 'FAIL'} "
          f"max_overshoot={report.max_overshoot:.3e}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aporbit",
        description="Finite-state periodic approximation of iterated maps",
    )
    common = _Parser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    common.add_argument("--json-only", dest="json_only", action="store_true",
                        help="skip CSV side channels")
    # only the commands that draw random numbers take a seed
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common],
                       help="orbit -> shadow -> chain -> trig form")
    p.add_argument("--map", required=True)
    p.add_argument("--y0", required=True, help="comma-separated initial point")
    p.add_argument("--K", type=_int_at_least(1), required=True)
    p.add_argument("--horizon", type=_int_at_least(1), default=None)
    p.add_argument("--emit-curve", dest="emit_curve", action="store_true")

    p = sub.add_parser("verify", parents=[seeded],
                       help="check the chain approximation error bound")
    p.add_argument("--map", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--K", type=_int_at_least(1), required=True)
    p.add_argument("--horizon", type=_int_at_least(1), default=200)
    p.add_argument("--samples", type=_int_at_least(1), default=4096)

    p = sub.add_parser("ladder", parents=[seeded],
                       help="multi-resolution convergence diagnostics")
    p.add_argument("--map", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--Ks", required=True, help="comma-separated resolutions")
    p.add_argument("--horizon", type=_int_at_least(1), default=200)
    p.add_argument("--budget", type=float, default=1e6,
                   help="partial-sum budget for the summability condition")
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("ar", parents=[common],
                       help="decompose a linear-recurrence orbit")
    p.add_argument("--spec", required=True)
    p.add_argument("--horizon", type=_int_at_least(0), default=200)

    p = sub.add_parser("census", parents=[seeded],
                       help="period statistics over a random ensemble")
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--K", type=_int_at_least(1), required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--generator", default="random_map",
                   choices=("random_map", "random_ar"))

    p = sub.add_parser("validate-map", parents=[seeded],
                       help="probe that a map sends the box into itself")
    p.add_argument("--map", required=True)
    p.add_argument("--samples", type=_int_at_least(0), default=256)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AporbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
