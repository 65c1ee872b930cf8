"""Batch front end: configured solves, convergence tables, parameter sweeps.

Configs are flat ``key = value`` text with bracketed lists and ``#``
comments. A run produces aligned text tables on stdout and, when an
output directory is given, a deterministic CSV whose rows can later be
regression-checked against a reference file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, dataclass, field
from itertools import groupby
from pathlib import Path

from .mesh import build_rectangle_mesh, build_staggered
from .solver import (
    BACKWARD_EULER,
    BDF2,
    ModelParams,
    SolverError,
    build_operators,
    write_step_log,
)
from .verify import (
    ManufacturedProblem,
    StudyRow,
    ZeroProblem,
    default_steps,
    run_manufactured,
    with_orders,
)

_SCHEMES = {
    "backward-euler": BACKWARD_EULER,
    "be": BACKWARD_EULER,
    "bdf2": BDF2,
    "second-order": BDF2,
}
_SCHEME_NAMES = {BACKWARD_EULER: "backward-euler", BDF2: "bdf2"}
_MODES = ("single", "convergence", "sweep")
_PROBLEMS = {"manufactured": ManufacturedProblem, "zero": ZeroProblem}
CSV_HEADER = "epsilon,alpha,beta,scheme,inv_h,N,err_u,ord_u,err_L,ord_L,err_p,ord_p"


class ConfigError(ValueError):
    """A configuration could not be parsed or validated."""


@dataclass
class RunConfig:
    """Everything one invocation needs; lists in epsilon/alpha/beta drive
    sweep mode, one list at a time."""

    mode: str = "single"
    mesh: list = field(default_factory=list)
    timesteps: list | None = None
    scheme: str = BACKWARD_EULER
    k: int = 1
    epsilon: object = 1.0
    alpha: object = 1.0
    beta: object = 1.0
    final_time: float = 0.1
    problem: str = "manufactured"
    out: str | None = None
    quiet: bool = False
    step_log: bool = False


# ----- config parsing ---------------------------------------------------------


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _parse_value(tok: str, key: str):
    tok = tok.strip()
    if tok.startswith("["):
        if not tok.endswith("]"):
            raise ConfigError(f"key '{key}': unterminated list")
        inner = tok[1:-1].strip()
        if not inner:
            raise ConfigError(f"key '{key}': empty list")
        return [_parse_scalar(part) for part in inner.split(",")]
    if not tok:
        raise ConfigError(f"key '{key}': missing value")
    return _parse_scalar(tok)


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}': expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}")
    return value


def _as_int_list(value, key: str) -> list:
    items = value if isinstance(value, list) else [value]
    return [_as_int(v, key) for v in items]


def _as_float_or_list(value, key: str):
    if isinstance(value, list):
        return [_as_float(v, key) for v in value]
    return _as_float(value, key)


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key '{key}': expected true or false, got {value!r}")
    return value


def _as_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key '{key}': expected a word, got {value!r}")
    return value


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a config; defaults fill absent keys.

    ``overrides`` (already-typed values, e.g. from command-line flags)
    replace file values before validation.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, tok = line.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"duplicate key '{key}'")
        raw[key] = _parse_value(tok, key)
    if overrides:
        raw.update(overrides)

    cfg = RunConfig()
    coercers = {
        "mode": lambda v: _as_str(v, "mode"),
        "mesh": lambda v: _as_int_list(v, "mesh"),
        "timesteps": lambda v: _as_int_list(v, "timesteps"),
        "scheme": lambda v: _as_str(v, "scheme"),
        "k": lambda v: _as_int(v, "k"),
        "epsilon": lambda v: _as_float_or_list(v, "epsilon"),
        "alpha": lambda v: _as_float_or_list(v, "alpha"),
        "beta": lambda v: _as_float_or_list(v, "beta"),
        "final_time": lambda v: _as_float(v, "final_time"),
        "problem": lambda v: _as_str(v, "problem"),
        "out": lambda v: _as_str(v, "out"),
        "quiet": lambda v: _as_bool(v, "quiet"),
        "step_log": lambda v: _as_bool(v, "step_log"),
    }
    for key, value in raw.items():
        if key not in coercers:
            raise ConfigError(f"unknown key '{key}'")
        setattr(cfg, key, coercers[key](value))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Normalize and check a config in place; raises ConfigError."""
    if cfg.mode not in _MODES:
        raise ConfigError(f"key 'mode': must be one of {', '.join(_MODES)}")
    if cfg.problem not in _PROBLEMS:
        raise ConfigError(f"key 'problem': must be one of {', '.join(_PROBLEMS)}")
    scheme = _SCHEMES.get(str(cfg.scheme).lower())
    if scheme is None:
        raise ConfigError(f"key 'scheme': unknown scheme {cfg.scheme!r}")
    cfg.scheme = scheme
    if not cfg.mesh:
        raise ConfigError("missing required key 'mesh' (list of inverse mesh sizes)")
    if any(n < 1 for n in cfg.mesh):
        raise ConfigError("key 'mesh': inverse mesh sizes must be >= 1")
    if cfg.mode == "single" and len(cfg.mesh) != 1:
        raise ConfigError("key 'mesh': single mode takes exactly one mesh size")
    if cfg.mode != "single" and any(
        a >= b for a, b in zip(cfg.mesh, cfg.mesh[1:])
    ):
        raise ConfigError("key 'mesh': sizes must strictly refine")
    if cfg.timesteps is None:
        cfg.timesteps = default_steps(cfg.mesh, cfg.scheme)
    if len(cfg.timesteps) != len(cfg.mesh):
        raise ConfigError("key 'timesteps': must pair one count per mesh size")
    if any(n < 1 for n in cfg.timesteps):
        raise ConfigError("key 'timesteps': step counts must be >= 1")
    if cfg.k < 1:
        raise ConfigError("key 'k': polynomial degree must be >= 1")
    if cfg.final_time <= 0:
        raise ConfigError("key 'final_time': must be positive")

    lists = [k for k in ("epsilon", "alpha", "beta") if isinstance(getattr(cfg, k), list)]
    if cfg.mode == "sweep":
        if len(lists) != 1:
            raise ConfigError(
                "sweep mode needs exactly one of epsilon/alpha/beta as a list"
            )
        swept = getattr(cfg, lists[0])
        if len(set(swept)) != len(swept):
            raise ConfigError(f"key '{lists[0]}': a sweep value is repeated")
    elif lists:
        raise ConfigError(
            f"key '{lists[0]}': lists are only allowed in sweep mode"
        )
    for key, low_ok in (("epsilon", True), ("alpha", False), ("beta", True)):
        vals = getattr(cfg, key)
        for v in vals if isinstance(vals, list) else [vals]:
            if v < 0 or (v == 0 and not low_ok):
                raise ConfigError(f"key '{key}': value {v!r} out of range")


# ----- execution ---------------------------------------------------------------


def _sweep_cells(cfg: RunConfig):
    """Parameter triples, one per block (a single block outside sweeps)."""
    eps, alpha, beta = cfg.epsilon, cfg.alpha, cfg.beta
    if isinstance(eps, list):
        return [(e, alpha, beta) for e in eps]
    if isinstance(alpha, list):
        return [(eps, a, beta) for a in alpha]
    if isinstance(beta, list):
        return [(eps, alpha, b) for b in beta]
    return [(eps, alpha, beta)]


def run_config(cfg: RunConfig):
    """Execute all runs of a config.

    Returns (rows, reports) where rows are StudyRows in output order and
    reports are the per-step diagnostics of the last run (for the
    optional step log).
    """
    ops_cache = {}
    rows: list[StudyRow] = []
    reports = None
    for eps, alpha, beta in _sweep_cells(cfg):
        params = ModelParams(epsilon=eps, alpha=alpha, beta=beta)
        block = []
        for n, n_steps in zip(cfg.mesh, cfg.timesteps):
            if n not in ops_cache:
                mesh = build_staggered(build_rectangle_mesh(n, n))
                ops_cache[n] = build_operators(mesh, cfg.k)
            row, res = run_manufactured(
                n,
                n_steps,
                params,
                cfg.scheme,
                cfg.k,
                cfg.final_time,
                ops=ops_cache[n],
                problem=_PROBLEMS[cfg.problem],
            )
            block.append(row)
            reports = res.reports
        rows += with_orders(block)
    return rows, reports


# ----- output -------------------------------------------------------------------


def _fmt_ord(v, width=7):
    return ("N/A" if v is None else f"{v:.2f}").rjust(width)


def format_table(rows: list[StudyRow], cfg: RunConfig) -> str:
    """Aligned text blocks, one per parameter cell, Error/Order layout."""
    out = []
    for (eps, alpha, beta), block in groupby(rows, lambda r: (r.epsilon, r.alpha, r.beta)):
        out.append(
            f"epsilon = {eps:g}  alpha = {alpha:g}  beta = {beta:g}  "
            f"scheme = {_SCHEME_NAMES[cfg.scheme]}  k = {cfg.k}  T = {cfg.final_time:g}"
        )
        out.append(
            f"{'1/h':>5} {'N':>7} {'err_u':>12} {'Order':>7} "
            f"{'err_L':>12} {'Order':>7} {'err_p':>12} {'Order':>7}"
        )
        for r in block:
            out.append(
                f"{r.inv_h:>5} {r.n_steps:>7} {r.err_u:>12.3e} {_fmt_ord(r.ord_u)} "
                f"{r.err_L:>12.3e} {_fmt_ord(r.ord_L)} "
                f"{r.err_p:>12.3e} {_fmt_ord(r.ord_p)}"
            )
        out.append("")
    return "\n".join(out)


_COLUMNS = CSV_HEADER.split(",")
# The columns that identify a row; the others hold its errors and orders.
_KEY = _COLUMNS[:6]


def _csv_values(r: StudyRow) -> dict:
    """A row's values by CSV column (StudyRow's fields are in that order)."""
    values = dict(zip(_COLUMNS, astuple(r)))
    values["scheme"] = _SCHEME_NAMES[r.scheme]
    return values


def _csv_text(name: str, v) -> str:
    if v is None:
        return "N/A"
    if name.startswith("err_"):
        return f"{v:.6e}"
    if name.startswith("ord_"):
        return f"{v:.4f}"
    return v if isinstance(v, str) else repr(v)


def _csv_value(name: str, text: str):
    """Inverse of _csv_text, up to the written precision."""
    if name == "scheme":
        return text
    if name in ("inv_h", "N"):
        return int(text)
    return None if text == "N/A" and name.startswith("ord_") else float(text)


def csv_lines(rows: list[StudyRow]) -> list[str]:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_csv_text(n, v) for n, v in _csv_values(r).items()))
    return lines


def _parse_ref_csv(text: str) -> list[dict]:
    """The rows of a reference CSV, each as its values by column."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ConfigError("reference CSV: unexpected header")
    ref = []
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != len(_COLUMNS):
            raise ConfigError(f"reference CSV: malformed row {ln!r}")
        try:
            ref.append({n: _csv_value(n, p) for n, p in zip(_COLUMNS, parts)})
        except ValueError as exc:
            raise ConfigError(f"reference CSV: malformed row {ln!r}: {exc}") from None
    return ref


def _orders_agree(g: float, w: float) -> bool:
    return abs(g - w) <= 0.2 or (math.isnan(g) and math.isnan(w))


def check_tables(rows: list[StudyRow], ref_text: str) -> list[str]:
    """Compare produced rows against a reference CSV.

    Rows match on the values of the key columns. Errors must agree
    within a factor 1.5 either way, orders within 0.2, and a NaN order
    matches only a NaN order; every reference row must be present.
    Returns failure descriptions.
    """
    produced = {tuple(v[c] for c in _KEY): v for v in map(_csv_values, rows)}
    failures = []
    for want in _parse_ref_csv(ref_text):
        key = tuple(want[c] for c in _KEY)
        got = produced.get(key)
        if got is None:
            failures.append(f"missing row for {key}")
            continue
        for name in _COLUMNS[len(_KEY) :]:
            g, w = got[name], want[name]
            if name.startswith("err_"):
                if not (g == 0.0 if w == 0.0 else w / 1.5 <= g <= w * 1.5):
                    failures.append(f"{key}: {name} = {g:.3e}, reference {w:.3e}")
            elif w is not None and (g is None or not _orders_agree(g, w)):
                g_s = "N/A" if g is None else f"{g:.2f}"
                failures.append(f"{key}: {name} = {g_s}, reference {w:.2f}")
    return failures


# ----- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdgflow",
        description="Staggered DG solver for unsteady Darcy-Forchheimer-Brinkman flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="run a configured solve or study")
    ps.add_argument("--config", required=True, help="path to a key = value config")
    ps.add_argument("--out", help="directory for CSV artifacts")
    ps.add_argument("--mode", choices=_MODES, help="override the config mode")
    ps.add_argument("--quiet", action="store_true", help="suppress stdout tables")
    ps.add_argument(
        "--check-tables",
        metavar="REF_CSV",
        help="compare results against a reference CSV; exit 3 on regression",
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.out:
        overrides["out"] = args.out
    if args.quiet:
        overrides["quiet"] = True
    try:
        cfg = parse_config(text, overrides)
        ref_text = None
        if args.check_tables:
            ref_text = Path(args.check_tables).read_text()
            _parse_ref_csv(ref_text)  # a malformed reference fails before any run
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        rows, reports = run_config(cfg)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2

    if not cfg.quiet:
        print(format_table(rows, cfg))
    if cfg.out is not None:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "results.csv").write_text("\n".join(csv_lines(rows)) + "\n")
        if cfg.step_log and reports is not None:
            write_step_log(out_dir / "steps.csv", reports)

    if ref_text is not None:
        failures = check_tables(rows, ref_text)
        if failures:
            for f in failures:
                print(f"table regression: {f}", file=sys.stderr)
            return 3
        if not cfg.quiet:
            print("table check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
