"""Command-line entry point.

Subcommands wire the library pipeline to files: `run` (orbit, chain and
trig form), `verify` (error-bound report), `ladder` (multi-resolution
diagnostics), `ar` (recurrence decomposition), `census` (period
statistics), `validate-map` (range check).  Reports are JSON-first with
CSV side channels for plotting.  Exit codes: 0 ok, 2 pipeline failure,
3 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import analysis, armodel, maps, orbit, spectral
from .core import GridSpec, Point
from .errors import AporbitError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PIPELINE = 2
EXIT_CONFIG = 3

# Rows per block when a CSV is written from arrays.
CSV_BLOCK = 4096


def _json_default(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


class ConfigError(Exception):
    pass


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad vector {text!r}: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}: {exc}") from exc


def _load_map(path: str) -> maps.MapDefinition:
    # --map takes a file path or an inline JSON definition
    if path.lstrip().startswith("{"):
        try:
            return maps.map_from_json(json.loads(path))
        except (ValueError, KeyError, json.JSONDecodeError, AporbitError) as exc:
            raise ConfigError(f"bad inline map definition: {exc}") from exc
    if not os.path.exists(path):
        raise ConfigError(f"map file not found: {path}")
    try:
        return maps.load_map(path)
    except (ValueError, KeyError, json.JSONDecodeError, AporbitError) as exc:
        raise ConfigError(f"bad map file {path}: {exc}") from exc


def _load_ar_spec(path: str) -> armodel.ARSpec:
    if not os.path.exists(path):
        raise ConfigError(f"spec file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
        return armodel.ARSpec(p=data["p"], initial=data["z0"])
    except (ValueError, KeyError, json.JSONDecodeError, AporbitError) as exc:
        raise ConfigError(f"bad spec file {path}: {exc}") from exc


class _Out:
    """Output directory guard: never overwrite without --force."""

    def __init__(self, directory: str, force: bool):
        self.directory = directory
        self.force = force
        os.makedirs(directory, exist_ok=True)

    def path(self, name: str) -> str:
        target = os.path.join(self.directory, name)
        if os.path.exists(target) and not self.force:
            raise ConfigError(f"{target} exists; pass --force to overwrite")
        return target

    def write_json(self, name: str, payload: dict, config: dict) -> str:
        target = self.path(name)
        document = {"schema_version": SCHEMA_VERSION, "config": config}
        document.update(payload)
        with open(target, "w") as fh:
            json.dump(document, fh, indent=2, default=_json_default)
            fh.write("\n")
        return target

    def write_csv(self, name: str, header, rows) -> str:
        target = self.path(name)
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return target


def _array_rows(n: int, block):
    """CSV rows [t, *block(a, b)[t - a]] for t = 0..n-1, where block(a, b)
    returns the rows a..b-1 as a 2-d array.  Blocks pass through .tolist(),
    so the values print as the shortest repr of Python floats."""
    for a in range(0, n, CSV_BLOCK):
        b = min(a + CSV_BLOCK, n)
        for t, row in enumerate(block(a, b).tolist(), a):
            yield [t, *row]


def _resolved_config(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_run(args) -> int:
    m = _load_map(args.map)
    y0 = Point(_parse_vector(args.y0))
    g = GridSpec(K=args.K, d=m.d)
    horizon = args.horizon if args.horizon is not None else orbit.default_horizon(g)
    out = _Out(args.out, args.force)
    config = _resolved_config(args, ("map", "y0", "K", "horizon", "seed", "out"))
    config["horizon"] = horizon

    orb, shadow, table, chain = orbit.run_pipeline(m, y0, g, horizon)
    form = spectral.fit_trig(chain)

    if not args.json_only:
        ys = orb.as_array()
        header = (
            ["t"]
            + [f"y_{i+1}" for i in range(m.d)]
            + [f"ybar_{i+1}" for i in range(m.d)]
            + [f"ystar_{i+1}" for i in range(m.d)]
        )
        rows = _array_rows(horizon + 1, lambda a, b: np.hstack(
            [ys[a:b], shadow[a:b].nodes(), chain.values(a, b - 1)]))
        out.write_csv("orbit.csv", header, rows)
    summary = chain.summary()
    summary["shadow_periodic"] = orbit.shadow_periodicity(shadow)
    out.write_json("chain.json", summary, config)
    out.write_json("trig.json", form.to_json(), config)
    if args.emit_curve:
        T, L = chain.pre_period, chain.period
        rows = [
            [t] + list(spectral.eval_trig(form, t))
            for t in range(T, T + 3 * L + 1)
        ]
        out.write_csv(
            "trig_curve.csv", ["t"] + [f"v_{i+1}" for i in range(m.d)], rows
        )
    print(f"run: T={chain.pre_period} L={chain.period} N={table.n_states} "
          f"conflicts={len(table.conflicts)} -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    m = _load_map(args.map)
    y0 = Point(_parse_vector(args.y0))
    out = _Out(args.out, args.force)
    config = _resolved_config(
        args, ("map", "y0", "K", "horizon", "seed", "gamma_mode", "samples", "out")
    )
    lip = maps.estimate_lipschitz(
        m, mode=args.gamma_mode, samples=args.samples, seed=args.seed
    )
    report = analysis.verify_error_bound(m, y0, args.K, args.horizon, lipschitz=lip)
    out.write_json("verify.json", report.to_json(), config)
    if not args.json_only:
        rows = _array_rows(args.horizon + 1, lambda a, b: np.column_stack(
            [report.actual[a:b], report.bound[a:b]]))
        out.write_csv("verify.csv", ["t", "actual", "bound"], rows)
    status = "pass" if report.passed else "VIOLATION"
    print(f"verify: {status} worst_ratio={report.worst_ratio:.3e} "
          f"gamma={report.gamma:.6g} ({report.gamma_method}) "
          f"conflicts={report.conflicts}")
    return EXIT_OK


def cmd_ladder(args) -> int:
    m = _load_map(args.map)
    y0 = Point(_parse_vector(args.y0))
    Ks = _parse_int_list(args.Ks)
    if len(Ks) < 2:
        raise ConfigError("need at least two resolutions in --Ks")
    out = _Out(args.out, args.force)
    config = _resolved_config(
        args, ("map", "y0", "Ks", "horizon", "seed", "budget", "tolerance", "out")
    )
    lip = maps.estimate_lipschitz(m, seed=args.seed)
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
    spec = _load_ar_spec(args.spec)
    out = _Out(args.out, args.force)
    config = _resolved_config(args, ("spec", "horizon", "out"))
    roots = armodel.characteristic_roots(spec)
    verdict = armodel.classify(roots)
    payload = {"roots": roots.to_json(), "classification": verdict}
    if verdict == "bounded":
        dec = armodel.solve_coefficients(spec, roots)
        report = armodel.verify_decomposition(spec, dec, args.horizon)
        payload["decomposition"] = dec.to_json()
        payload["report"] = report.to_json()
        if not args.json_only:
            ap_part, rest = armodel.split(dec)
            z = armodel.recursion(spec, args.horizon)
            rows = [
                [t, z[t], ap_part(t), rest(t)] for t in range(args.horizon + 1)
            ]
            out.write_csv("ar_curve.csv", ["t", "z", "ap", "R"], rows)
    out.write_json("ar.json", payload, config)
    print(f"ar: d={spec.d} {verdict} roots="
          + " ".join(f"{mu:.6g}(x{m})" for mu, m in roots.roots))
    return EXIT_OK


def cmd_census(args) -> int:
    out = _Out(args.out, args.force)
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
        rows = [[i, T, L] for i, (T, L) in enumerate(report.pairs)]
        out.write_csv("census.csv", ["sample_id", "T", "L"], rows)
    stats = report.to_json()
    print(f"census: mean_L={stats['mean_L']:.3f} max_L={stats['max_L']} "
          f"of state_count={stats['state_count']}")
    return EXIT_OK


def cmd_validate_map(args) -> int:
    m = _load_map(args.map)
    out = _Out(args.out, args.force)
    config = _resolved_config(args, ("map", "samples", "seed", "out"))
    report = maps.validate_range(m, samples=args.samples, seed=args.seed)
    out.write_json("validate.json", report.to_json(), config)
    print(f"validate-map: {'pass' if report.passed else 'FAIL'} "
          f"max_overshoot={report.max_overshoot:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aporbit",
        description="Finite-state periodic approximation of iterated maps",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    common.add_argument("--json-only", dest="json_only", action="store_true",
                        help="skip CSV side channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common],
                       help="orbit -> shadow -> chain -> trig form")
    p.add_argument("--map", required=True)
    p.add_argument("--y0", required=True, help="comma-separated initial point")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--emit-curve", dest="emit_curve", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", parents=[common],
                       help="check the chain approximation error bound")
    p.add_argument("--map", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--gamma-mode", dest="gamma_mode", default="auto",
                   choices=("auto", "analytic", "sampled"))
    p.add_argument("--samples", type=int, default=4096)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ladder", parents=[common],
                       help="multi-resolution convergence diagnostics")
    p.add_argument("--map", required=True)
    p.add_argument("--y0", required=True)
    p.add_argument("--Ks", required=True, help="comma-separated resolutions")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--budget", type=float, default=1e6,
                   help="partial-sum budget for the summability condition")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("ar", parents=[common],
                       help="decompose a linear-recurrence orbit")
    p.add_argument("--spec", required=True)
    p.add_argument("--horizon", type=int, default=200)
    p.set_defaults(func=cmd_ar)

    p = sub.add_parser("census", parents=[common],
                       help="period statistics over a random ensemble")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--generator", default="random_map",
                   choices=("random_map", "random_ar"))
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("validate-map", parents=[common],
                       help="probe that a map sends the box into itself")
    p.add_argument("--map", required=True)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_validate_map)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
