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
from .risk_metrics import a2_statistic, lambda1_q
from .simulation import (
    Constant,
    NormalEffects,
    PointMass,
    ScenarioSpec,
    TwoGroup,
    TwoPoint,
    UniformCounts,
    compare_estimators,
    oracle_gap_study,
    risk_csv,
    ure_concentration_study,
)
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


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load(args):
    sigma2 = None if args.estimate_sigma2 else args.sigma2
    if sigma2 is None and not args.estimate_sigma2:
        raise ValueError("either --sigma2 or --estimate-sigma2 is required")
    if args.estimate_sigma2 and args.schema != "raw":
        raise ValueError("--estimate-sigma2 needs replicate-level (raw) input")
    return load_table(args.input, args.schema, sigma2=sigma2)


def _fit_report(args) -> dict:
    table = _load(args)
    loss = args.loss
    if loss == "auto":
        loss = "ss" if table.is_complete else "q"
    if loss == "weighted" and args.method != "ure":
        raise ValueError("--loss weighted is only available with --method ure")
    engine = None
    if args.method != "wls":
        qmode = {"ss": "identity", "q": "qmatrix", "weighted": "weighted"}[loss]
        engine = FitEngine(table, tau=args.tau, qmode=qmode)
    lambda1 = lambda1_q(build_design(table) if engine is None else engine.design)
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
        hp, objective = fit.hp, fit.objective
        eta_complete, mu_clamped = fit.eta_complete, fit.mu_clamped
        method_tag = "wls"
    else:
        method = "URE" if args.method == "ure" else "EBMLE"
        fit = engine.fit(table.y_observed, method)
        hp, objective = fit.hp, fit.objective
        eta_complete, mu_clamped = fit.eta_complete, fit.mu_clamped
        diagnostics["estimating_eq"] = fit.diagnostics.get("estimating_eq")
        diagnostics["grid_ties"] = fit.diagnostics.get("grid_ties", [])
        method_tag = "ure-weighted" if loss == "weighted" else args.method
    if not isfinite(objective):
        raise NumericError("fit produced a non-finite objective")
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": method_tag,
        "tau": args.tau,
        "loss": loss,
        "hp": {
            "mu": hp.mu,
            "lambda_a": None if not isfinite(hp.lambda_a) else hp.lambda_a,
            "lambda_b": None if not isfinite(hp.lambda_b) else hp.lambda_b,
            "lambda_tilde_a": hp.lambda_tilde_a,
            "lambda_tilde_b": hp.lambda_tilde_b,
        },
        "mu_clamped": bool(mu_clamped),
        "objective": objective,
        "eta_complete": np.asarray(eta_complete).reshape(table.r, table.c),
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

def _parse_config(path) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _law_args(spec: str, what: str, arities: dict):
    """(kind, numbers) of a ``kind[:a,b,...]`` law; ValueError when malformed."""
    kind, _, rest = spec.partition(":")
    if kind not in arities:
        raise ValueError(f"unknown {what} {spec!r}")
    args = [float(x) for x in rest.split(",")] if rest else []
    if len(args) not in arities[kind]:
        counts = " or ".join(map(str, arities[kind]))
        raise ValueError(
            f"{what} {spec!r} takes {counts} arguments, got {len(args)}"
        )
    return kind, args


def _parse_count_law(spec: str):
    kind, args = _law_args(spec, "count law", {
        "constant": (0, 1), "uniform": (2,), "twopoint": (0, 2, 3),
        "twopoint-anti": (0, 2, 3),
    })
    ints = [int(a) for a in args[:2]]
    if kind == "constant":
        return Constant(*ints)
    if kind == "uniform":
        return UniformCounts(*ints)
    return TwoPoint(*ints, *args[2:], anti_effect=kind.endswith("anti"))


def _parse_effect_law(spec: str):
    kind, args = _law_args(spec, "effect law", {
        "normal": (0, 1), "pointmass": (0, 1), "twogroup": (0, 1, 2, 3),
    })
    law = {"normal": NormalEffects, "pointmass": PointMass, "twogroup": TwoGroup}
    return law[kind](*args)


def _scenario_from_config(cfg: dict, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        r=int(cfg.get("r", 10)),
        c=int(cfg.get("c", 10)),
        count_law=_parse_count_law(cfg.get("count_law", "constant:1")),
        missing_frac=float(cfg.get("missing_frac", 0.0)),
        effect_law_a=_parse_effect_law(cfg.get("effect_a", "normal:1.0")),
        effect_law_b=_parse_effect_law(cfg.get("effect_b", "normal:1.0")),
        mu_true=float(cfg.get("mu_true", 0.0)),
        sigma2=float(cfg.get("sigma2", 1.0)),
        seed=seed,
        name=cfg.get("name", ""),
    )


def cmd_simulate(args) -> int:
    cfg = _parse_config(args.config)
    spec = _scenario_from_config(cfg, args.seed)
    n_reps = int(cfg.get("n_reps", 200))
    tau = float(cfg.get("tau", 0.05))
    if args.study == "compare":
        estimators = tuple(
            e.strip() for e in cfg.get("estimators", "wls,ebmle,ure,oracle").split(",")
        )
        table = compare_estimators(
            spec, n_reps, estimators=estimators, tau=tau, n_jobs=args.jobs
        )
        text = risk_csv([table], out=args.out)
    elif args.study == "oracle-gap":
        sizes = []
        for tok in cfg.get("sizes", "10x10,20x20,40x40").split(","):
            a, _, b = tok.strip().partition("x")
            sizes.append((int(a), int(b)))
        result = oracle_gap_study(sizes, spec, n_reps, tau=tau, n_jobs=args.jobs)
        text = result.to_csv(out=args.out)
    elif args.study == "concentration":
        grid = []
        for tok in cfg.get("lt_grid", "0,0;0.25,0.25;0.5,0.5;1,1").split(";"):
            a, b = tok.split(",")
            grid.append((float(a), float(b)))
        result = ure_concentration_study(spec, grid, n_reps, tau=tau)
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
    except (ValueError, OSError) as exc:  # DisconnectedDesignError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
