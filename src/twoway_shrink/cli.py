"""Command-line front end: ingest CSV, run fits, diagnostics and studies.

Exit codes: 0 success, 2 validation error (bad schema, disconnected
design, bad config), 3 numeric failure.  All output is deterministic for
fixed inputs; reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import isfinite

import numpy as np

from . import __version__
from .estimators import FitEngine, wls_fit_full
from .linear_core import NumericError
from .risk_metrics import a2_statistic, lambda1_q, loss_mode
from .tables import (
    DisconnectedDesignError,
    build_design,
    imbalance_ratio,
    load_table,
)

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# The --loss name of each qmode; risk_metrics.loss_mode resolves "auto".
LOSS_QMODES = {"auto": "auto", "ss": "identity", "q": "qmatrix", "weighted": "weighted"}
QMODE_LOSSES = {qmode: loss for loss, qmode in LOSS_QMODES.items()}


def _jsonable(x):
    """Convert to JSON-safe values; non-finite floats become null."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if isfinite(x) else None
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def write_report(report: dict, out) -> str:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load(args):
    if args.sigma2 is not None and args.estimate_sigma2:
        raise ValueError("give --sigma2 or --estimate-sigma2, not both")
    if args.sigma2 is None and not args.estimate_sigma2:
        raise ValueError("either --sigma2 or --estimate-sigma2 is required")
    if args.estimate_sigma2 and args.schema != "raw":
        raise ValueError("--estimate-sigma2 needs replicate-level (raw) input")
    return load_table(args.input, args.schema, sigma2=args.sigma2)


def _fit_report(args) -> dict:
    table = _load(args)
    if args.loss == "weighted" and args.method != "ure":
        raise ValueError("--loss weighted is only available with --method ure")
    qmode = LOSS_QMODES[args.loss]
    if args.method == "wls":
        engine, design = None, build_design(table)
        qmode = loss_mode(design, qmode)
    else:
        engine = FitEngine(table, tau=args.tau, qmode=qmode)
        design, qmode = engine.design, engine.qmode
    lambda1 = lambda1_q(design)
    diagnostics = {
        "connected": True,
        "nu": imbalance_ratio(table),
        "lambda1_q": lambda1,
        "a2_statistic": a2_statistic(table, lambda1=lambda1),
        "sigma2": table.sigma2,
        "sigma2_source": table.sigma2_source,
        "estimating_eq": None,
    }
    if engine is None:
        fit = wls_fit_full(table, tau=args.tau)
    else:
        fit = engine.fit(table.y_observed, "URE" if args.method == "ure" else "EBMLE")
        diagnostics["estimating_eq"] = fit.diagnostics.get("estimating_eq")
        diagnostics["grid_ties"] = fit.diagnostics.get("grid_ties", [])
    hp, objective = fit.hp, fit.objective
    if not isfinite(objective):
        raise NumericError("fit produced a non-finite objective")
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": "ure-weighted" if qmode == "weighted" else args.method,
        "tau": args.tau,
        "loss": QMODE_LOSSES[qmode],
        "hp": {
            "mu": hp.mu,
            "lambda_a": None if not isfinite(hp.lambda_a) else hp.lambda_a,
            "lambda_b": None if not isfinite(hp.lambda_b) else hp.lambda_b,
            "lambda_tilde_a": hp.lambda_tilde_a,
            "lambda_tilde_b": hp.lambda_tilde_b,
        },
        "mu_clamped": bool(fit.mu_clamped),
        "objective": objective,
        "eta_complete": np.asarray(fit.eta_complete).reshape(table.r, table.c),
        "row_labels": [str(x) for x in table.row_labels],
        "col_labels": [str(x) for x in table.col_labels],
        "diagnostics": diagnostics,
        "provenance": {
            "input_sha256": _sha256(args.input),
            "tool_version": __version__,
            "seed": None,
        },
    }


def cmd_fit(args) -> int:
    report = _fit_report(args)
    text = write_report(report, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    table = _load(args)
    print(f"table: {table.r} x {table.c}, observed cells: {table.n_observed}")
    try:
        design = build_design(table)
    except DisconnectedDesignError as exc:
        print("connected: False")
        print(exc)
        return EXIT_OK
    print("connected: True")
    lambda1 = lambda1_q(design)
    print(f"imbalance ratio nu: {imbalance_ratio(table)!r}")
    print(f"lambda1(Q): {lambda1!r}")
    print(f"a2 statistic: {a2_statistic(table, lambda1=lambda1)!r}")
    counts = table.k_observed
    print("count histogram:")
    values, freq = np.unique(counts, return_counts=True)
    for v, f in zip(values, freq):
        print(f"  count {v}: {f} cells")
    return EXIT_OK


# -- simulate ----------------------------------------------------------------

class _NamedValueError(ValueError):
    """A malformed config value whose message already names its field."""


def _law_args(spec: str, what: str, arities: dict):
    """(kind, numbers) of a ``kind[:a,b,...]`` law; ValueError when malformed."""
    kind, _, rest = spec.partition(":")
    if kind not in arities:
        raise _NamedValueError(f"unknown {what} {spec!r}")
    args = [float(x) for x in rest.split(",")] if rest else []
    if len(args) not in arities[kind]:
        counts = " or ".join(map(str, arities[kind]))
        raise _NamedValueError(f"{what} {spec!r} takes {counts} arguments, "
                               f"got {len(args)}")
    return kind, args


def _parse_count_law(spec: str):
    from .simulation import Constant, TwoPoint, UniformCounts

    kind, args = _law_args(spec, "count law", {
        "constant": (0, 1), "uniform": (2,), "twopoint": (0, 2, 3),
        "twopoint-anti": (0, 2, 3),
    })
    if kind.startswith("twopoint"):
        return TwoPoint(*args, anti_effect=kind.endswith("anti"))
    return {"constant": Constant, "uniform": UniformCounts}[kind](*args)


def _parse_effect_law(spec: str):
    from .simulation import NormalEffects, PointMass, TwoGroup

    kind, args = _law_args(spec, "effect law", {
        "normal": (0, 1), "pointmass": (0, 1), "twogroup": (0, 1, 2, 3),
    })
    law = {"normal": NormalEffects, "pointmass": PointMass, "twogroup": TwoGroup}
    return law[kind](*args)


def _parse_pairs(text: str, sep: str, item: str, number, form: str) -> list:
    """One pair of ``number``s, split on ``item``, per ``sep``-separated token."""
    pairs = []
    for tok in map(str.strip, text.split(sep)):
        try:
            a, b = map(number, tok.split(item))
        except ValueError:
            raise ValueError(f"{tok!r} is not {form}") from None
        pairs.append((a, b))
    return pairs


# Each key a study reads, with its parser; any other key is rejected, so a
# misspelt key cannot silently fall back to its default.
CONFIG_PARSERS = {
    "r": int, "c": int, "count_law": _parse_count_law, "missing_frac": float,
    "effect_a": _parse_effect_law, "effect_b": _parse_effect_law,
    "mu_true": float, "sigma2": float, "name": str, "n_reps": int, "tau": float,
    "estimators": lambda text: tuple(name.strip() for name in text.split(",")),
    "sizes": lambda text: _parse_pairs(text, ",", "x", int, "a size RxC"),
    "lt_grid": lambda text: _parse_pairs(text, ";", ",", float, "a pair a,b"),
}
CONFIG_KEYS = tuple(CONFIG_PARSERS)


def _parse_config(path) -> dict:
    """Each key the file gives, its value parsed before any study runs."""
    cfg, lines = {}, {}
    with open(path, encoding="utf-8-sig") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, _, value = line.partition("=")
            if (key := key.strip()) not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}; known keys: "
                                 f"{', '.join(CONFIG_KEYS)}")
            if key in lines:
                raise ValueError(f"config key {key!r} given twice, on lines "
                                 f"{lines[key]} and {number}")
            try:
                cfg[key] = CONFIG_PARSERS[key](value.strip())
            except _NamedValueError:
                raise
            except ValueError as exc:  # one that does not name its key and line
                raise ValueError(f"config key {key!r} on line {number}: {exc}") from None
            lines[key] = number
    return cfg


def _scenario_from_config(cfg: dict, seed: int):
    from .simulation import Constant, NormalEffects, ScenarioSpec

    return ScenarioSpec(
        r=cfg.get("r", 10), c=cfg.get("c", 10),
        count_law=cfg.get("count_law", Constant(1)),
        missing_frac=cfg.get("missing_frac", 0.0),
        effect_law_a=cfg.get("effect_a", NormalEffects(1.0)),
        effect_law_b=cfg.get("effect_b", NormalEffects(1.0)),
        mu_true=cfg.get("mu_true", 0.0), sigma2=cfg.get("sigma2", 1.0),
        seed=seed, name=cfg.get("name", ""),
    )


def cmd_simulate(args) -> int:
    # simulation (and its process pool) is imported only here and in the
    # config parsers, so that fit and diagnose load the fit modules alone.
    from .simulation import (ALL_ESTIMATORS, check_estimators, compare_estimators,
                             oracle_gap_study, risk_csv, ure_concentration_study)

    if args.jobs < 1:
        raise ValueError(f"n_jobs must be positive, got {args.jobs}")
    cfg = _parse_config(args.config)
    spec = _scenario_from_config(cfg, args.seed)
    n_reps, tau = cfg.get("n_reps", 200), cfg.get("tau", 0.05)
    estimators = cfg.get("estimators", ALL_ESTIMATORS)
    if args.study == "oracle-gap" and sorted(estimators) != sorted(ALL_ESTIMATORS):
        raise ValueError(f"oracle-gap always fits {', '.join(ALL_ESTIMATORS)}; "
                         f"estimators={','.join(estimators)} must name all four")
    check_estimators(estimators)
    if args.study == "compare":
        table = compare_estimators(
            spec, n_reps, estimators=estimators, tau=tau, n_jobs=args.jobs
        )
        text = risk_csv([table], out=args.out)
    elif args.study == "oracle-gap":
        sizes = cfg.get("sizes", [(10, 10), (20, 20), (40, 40)])
        result = oracle_gap_study(sizes, spec, n_reps, tau=tau, n_jobs=args.jobs)
        text = result.to_csv(out=args.out)
    elif args.study == "concentration":
        grid = cfg.get("lt_grid", [(0.0, 0.0), (0.25, 0.25), (0.5, 0.5), (1.0, 1.0)])
        result = ure_concentration_study(spec, grid, n_reps)
        text = result.to_csv(out=args.out)
    else:
        raise ValueError(f"unknown study {args.study!r}")
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoway-shrink",
        description="Shrinkage estimation of two-way cell means (URE / EBMLE / WLS)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--schema", choices=("raw", "agg"), default="raw")
        p.add_argument("--sigma2", type=float, default=None)
        p.add_argument(
            "--estimate-sigma2",
            action="store_true",
            help="pooled within-cell variance plug-in (raw schema only)",
        )

    p_fit = sub.add_parser("fit", help="fit cell means and write a report")
    add_io(p_fit)
    p_fit.add_argument("--method", choices=("ure", "ml", "wls"), default="ure")
    p_fit.add_argument("--tau", type=float, default=0.05)
    p_fit.add_argument("--loss", choices=("auto", "ss", "weighted", "q"), default="auto")
    p_fit.add_argument("--out", default=None, help="report path (stdout if omitted)")
    p_fit.set_defaults(func=cmd_fit)

    p_diag = sub.add_parser("diagnose", help="print design diagnostics")
    add_io(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    p_sim.add_argument("--study", choices=("compare", "oracle-gap", "concentration"),
                       required=True)
    p_sim.add_argument("--config", required=True, help="key=value config file")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # DisconnectedDesignError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
