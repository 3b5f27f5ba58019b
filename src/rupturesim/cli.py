"""Batch command-line entry point.

Subcommands: ``simulate`` (rupture-punctuated evolution), ``bounds``
(closed-form rupture-time bounds), ``stationary`` (profile dump and
localization check), ``find-periodic`` (return-map fixed-point search),
and ``verify`` (two-period certification of an emitted fixed profile).

Exit codes: 0 success, 1 model violation (or failed verification),
2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ModelConfig, config_from_dict, config_to_dict, read_scenario, validate
from .errors import (
    ConfigError,
    DomainError,
    ModelViolationError,
    ParseError,
    SimulationError,
)
from .rupture import run_with_rupture, rupture_time_bounds
from .solver import CoupledState, Field, build_grid
from . import stationary

_EX1 = {
    "omega": 1.0,
    "junctions": [0.1, 0.6, 0.9],
    "jump_strengths": [1.0, 1.0, 1.0],
    "forcing_offset": 3.0,
    "sigma1": 1.0,
    "sigma2": 1.0,
    "tau": 1.0,
    "alpha": 1.0,
    "eta_c": 0.03e-12,
    "eta_a": 0.03,
    "d": 0.1,
    "mode": "decoupled",
    "reduction_case": "case_i",
}
# ex2 and ex3 share ex1's lists; preset_config copies a preset before use
PRESETS: dict[str, dict] = {
    "ex1": _EX1,
    "ex2": {**_EX1, "alpha": 60.0, "eta_c": 0.003},
    "ex3": {**_EX1, "sigma1": 0.5, "mode": "coupled"},
}

COMMANDS = ("simulate", "bounds", "stationary", "find-periodic", "verify")


class RunManifest(NamedTuple):
    """Everything one invocation needs; presets are ex1/ex2/ex3."""

    command: str
    config_source: str
    output_dir: Path
    overrides: tuple[tuple[str, object], ...] = ()
    max_events: int | None = None
    t_end: float | None = None
    eta0: str | None = None
    fp_tol: float | None = None
    max_iter: int | None = None


def preset_config(name: str, overrides: tuple[tuple[str, object], ...] = ()) -> ModelConfig:
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    raw = json.loads(json.dumps(PRESETS[name]))
    return config_from_dict(_apply_overrides(raw, overrides))


def _apply_overrides(raw: dict, overrides) -> dict:
    for key, value in overrides:
        parts = key.split(".")
        target = raw
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise DomainError(f"override path {key!r} does not address an object")
        target[parts[-1]] = value
    return raw


def parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise DomainError(f"override {text!r} is not of the form key=value")
    key, _, value = text.partition("=")
    try:
        parsed: object = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.strip(), parsed


def resolve_config(manifest: RunManifest) -> ModelConfig:
    if manifest.config_source in PRESETS:
        return preset_config(manifest.config_source, manifest.overrides)
    raw = read_scenario(manifest.config_source)
    return config_from_dict(_apply_overrides(raw, manifest.overrides))


def make_initial_field(spec: str | None, grid, config: ModelConfig) -> Field:
    """Initial-condition mini-language: ``const:<v>`` or
    ``const_plus_sine:<v>,<amp>,<freq>`` (freq in periods per domain)."""
    if spec is None:
        spec = f"const:{config.eta_a!r}"
    kind, _, args = spec.partition(":")
    try:
        if kind == "const":
            values = np.full(grid.n, float(args))
        elif kind == "const_plus_sine":
            base_s, amp_s, freq_s = args.split(",")
            base, amp, freq = float(base_s), float(amp_s), float(freq_s)
            values = base + amp * np.sin(2.0 * np.pi * freq * grid.nodes / grid.omega)
        else:
            raise DomainError(f"unknown initial-condition kind {kind!r}")
    except ValueError as exc:
        raise DomainError(f"bad initial-condition spec {spec!r}: {exc}") from exc
    if not np.isfinite(values).all():
        raise DomainError(f"initial-condition spec {spec!r} gives non-finite values")
    return Field(grid, values, 0.0)


_BLOCK = 4096  # rows rendered per write
_FIELD = 40  # bytes per rendered value, laid out as in _tables
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


@functools.lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Built on first use: 10**k for k = 0..21 (exact) with its high and low
    parts; the ASCII words "0000".."9999", then "\\0\\0\\0d" at 10000 + d; and
    per exponent and sign, a field without its digits (see _render)."""
    p = np.array([float(10**k) for k in range(22)])
    high = p * _SPLIT - (p * _SPLIT - p)
    digits = np.arange(48, 58, dtype=np.uint8)
    words = np.zeros((10010, 4), np.uint8)
    words[:10000] = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), -1).reshape(-1, 4)
    words[10000:, 3] = digits
    layouts = np.zeros((21, 2, _FIELD), np.uint8)
    layouts[:, 1, 0] = ord("-")
    prefixes = b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0"  # exponents -4 to -1
    layouts[:4, :, 1:6] = np.frombuffer(prefixes, np.uint8).reshape(4, 1, 5)
    layouts[np.arange(4, 20), :, 7 + 2 * np.arange(16)] = ord(".")
    return np.stack([p, high, p - high]), words.view(np.uint32).ravel(), layouts.reshape(42, -1)


def _digits17(a: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - exponent)`` rounded half to even, exactly: ``prod + err``
    with ``err`` from Dekker's error-free product.  For 17 digits, ``prod >=
    2**53`` is an even integer, so rounding the small ``err`` rounds the sum."""
    b, b_hi, b_lo = np.take(_tables()[0], 16 - exponent, axis=1, mode="clip")
    prod = a * b
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = a_lo * b_lo - (((prod - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return prod.astype(np.int64) + np.rint(err).astype(np.int64)


def _render(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value as a NUL-padded row of bytes, laid out
    from its 17 exact digits in fixed notation (exponent -4 to 16); Python
    formats the rest: zeros, non-finite values and scientific notation."""
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    # log10 may be one off and rounding may carry, putting n outside [1e16, 1e17)
    # or the exponent at 17; no double is near enough below 10**k to pass wrongly
    exponent = np.floor(np.log10(a)).astype(np.int64)
    n = _digits17(a, exponent)
    miss = np.flatnonzero((n < 10**16) | (n >= 10**17) | (exponent > 16))
    if len(miss):
        e = exponent[miss] + np.where(n[miss] < 10**16, -1, 1)
        m = _digits17(a[miss], e)
        ok = (m >= 10**16) & (m < 10**17) & (e >= -4) & (e <= 16)
        exponent[miss], n[miss], fixed[miss] = np.where(ok, e, 0), np.where(ok, m, 10**16), ok
    # indices of the words: the leading digit and four groups of 4 digits
    heads = [n // 10**k for k in (16, 12, 8, 4)] + [n]  # the first 1, 5, 9, 13, 17 digits
    quads = np.stack([heads[0] + 10000] + [lo - hi * 10**4 for hi, lo in zip(heads, heads[1:])])
    # a field: sign, "0." and up to three zeros if exponent < 0, then 17 pairs of
    # a digit and an optional point, as little-endian units to OR the digits into
    _, words, layouts = _tables()
    fields = np.take(layouts.view("<u2"), (exponent + 4) * 2 + (values < 0), axis=0)
    fields |= np.ascontiguousarray(words[quads].T).view(np.uint8)
    fields = fields.view(np.uint8)
    # drop trailing zeros after the point, and the point if nothing follows
    zero = np.flatnonzero(fields[:, -2] == ord("0"))
    stripped = fields[zero]
    last = 16 - np.argmax(stripped[:, -2:5:-2] != ord("0"), axis=1)
    stripped *= np.arange(_FIELD) < 7 + 2 * np.maximum(last, exponent[zero])[:, None]
    fields[zero] = stripped
    rest = np.flatnonzero(~fixed)
    if len(rest):
        texts = b"".join((b"%.17g" % v).ljust(_FIELD, b"\0") for v in values[rest].tolist())
        fields[rest] = np.frombuffer(texts, np.uint8).reshape(-1, _FIELD)
    return fields


@functools.lru_cache(maxsize=4)
def _x_column(x_bytes: bytes) -> np.ndarray:
    """Each x at ``%.17g`` and a comma, less the byte columns NUL in every
    row; keyed on the column's bytes, so each grid renders its x once."""
    xs = np.frombuffer(x_bytes)
    fields = np.vstack([_render(xs[i : i + _BLOCK]) for i in range(0, max(len(xs), 1), _BLOCK)])
    column = np.hstack([fields[:, fields.any(axis=0)], np.full((len(xs), 1), ord(","), np.uint8)])
    column.flags.writeable = False  # shared by every caller on this grid
    return column


def write_profile_csv(path: Path, xs: np.ndarray, values: np.ndarray, value_name: str = "value") -> None:
    """Write an ``x,<value_name>`` header and one ``x,value`` row per node,
    each number byte for byte Python's ``"%.17g"``: rows of NUL-padded text
    (:func:`_render`, :func:`_x_column`), written with the NULs deleted."""
    if len(values) != len(xs):
        raise ValueError(f"{len(values)} values for {len(xs)} x positions")
    x_column = _x_column(np.asarray(xs, dtype=np.float64).tobytes())
    values = np.asarray(values, dtype=np.float64)
    width = x_column.shape[1]
    rows = np.empty((min(len(values), _BLOCK), width + _FIELD + 1), np.uint8)
    rows[:, -1] = ord("\n")
    with open(path, "wb") as handle:
        handle.write(f"x,{value_name}\n".encode())
        for start in range(0, len(values), _BLOCK):
            block = rows[: min(_BLOCK, len(values) - start)]
            block[:, :width] = x_column[start : start + len(block)]
            block[:, width:-1] = _render(values[start : start + len(block)])
            handle.write(block.tobytes().translate(None, b"\0"))


def read_profile_csv(path: Path, grid) -> Field:
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, without numpy's notice
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if rows.ndim != 2 or rows.shape[0] != grid.n:
        raise DomainError(f"{path}: expected {grid.n} rows of x,value")
    # %.17g round-trips, so a profile written on this grid has its x exactly
    if not np.array_equal(rows[:, 0], grid.nodes):
        raise DomainError(f"{path}: its x column is not this configuration's grid")
    return Field(grid, rows[:, 1].copy(), 0.0)


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by ``None``, which
    JSON writes as ``null``: JSON has no NaN or infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: an undefined value, such as a bound
    whose logarithm is undefined, becomes ``null``."""
    path.write_text(json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n")


def _write_manifest(manifest: RunManifest, config: ModelConfig) -> None:
    _write_json(
        manifest.output_dir / "manifest.json",
        {
            "command": manifest.command,
            "config_source": manifest.config_source,
            "overrides": [list(pair) for pair in manifest.overrides],
            "config": config_to_dict(config),
        },
    )


def _cmd_simulate(manifest: RunManifest, config: ModelConfig) -> int:
    grid = build_grid(config)
    state = make_initial_field(manifest.eta0, grid, config)
    if config.mode == "coupled":
        state = CoupledState.from_thickness(state)
    events, final = run_with_rupture(
        config, state, max_events=manifest.max_events, t_end=manifest.t_end
    )

    out = manifest.output_dir
    records = []
    for j, event in enumerate(events, start=1):
        pre_name = f"profile_eta_pre_ev{j:04d}.csv"
        post_name = f"profile_eta_post_ev{j:04d}.csv"
        write_profile_csv(out / pre_name, grid.nodes, event.pre_profile.values)
        write_profile_csv(out / post_name, grid.nodes, event.post_profile.values)
        if event.post_h is not None:
            write_profile_csv(
                out / f"profile_h_post_ev{j:04d}.csv", grid.nodes, event.post_h.values
            )
        records.append(
            {
                "j": j,
                "t": event.time,
                "reset_intervals": list(event.reset_intervals),
                "min_eta": float(np.min(event.pre_profile.values)),
                "pre_csv": pre_name,
                "post_csv": post_name,
            }
        )
    (out / "events.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )

    write_profile_csv(out / "profile_eta_final.csv", grid.nodes, final.eta.values)
    if config.mode == "coupled":
        write_profile_csv(out / "profile_h_final.csv", grid.nodes, final.h.values)
        write_profile_csv(out / "profile_zeta_final.csv", grid.nodes, final.zeta.values)
    _write_json(
        out / "report.json",
        {"command": "simulate", "events": len(records), "final_time": final.time},
    )
    return 0


def _cmd_bounds(manifest: RunManifest, config: ModelConfig) -> int:
    grid = build_grid(config)
    eta0 = make_initial_field(manifest.eta0, grid, config)
    report = rupture_time_bounds(config, eta0)
    _write_json(
        manifest.output_dir / "report.json",
        {
            "command": "bounds",
            "t_lower": report.t_lower,
            "t_upper": report.t_upper,
            "lower_applicable": report.lower_applicable,
            "upper_applicable": report.upper_applicable,
        },
    )
    return 0


def _cmd_stationary(manifest: RunManifest, config: ModelConfig) -> int:
    grid = build_grid(config)
    profile = stationary.solve_stationary(config)
    if config.alpha > 0.0:
        report = stationary.check_condition_S(profile, config)
        payload = {
            "command": "stationary",
            "condition_S_holds": report.condition_S_holds,
            "rupture_interval_index": report.rupture_interval_index,
            "eta_a_clearance": report.eta_a_clearance,
            "min_per_interval": [list(pair) for pair in report.min_per_interval],
        }
    else:
        payload = {
            "command": "stationary",
            "condition_S_holds": None,
            "note": "localization check refused for the alpha = 0 profile family",
        }
    values = stationary.eval_stationary(profile, grid.nodes)
    write_profile_csv(manifest.output_dir / "stationary.csv", grid.nodes, values, "s")
    _write_json(manifest.output_dir / "report.json", payload)
    return 0


def _cmd_find_periodic(manifest: RunManifest, config: ModelConfig) -> int:
    # periodic is imported by the two commands that use it, so that the
    # others do not load it
    from .periodic import find_periodic, splice

    grid = build_grid(config)
    xi0 = make_initial_field(manifest.eta0, grid, config)
    max_iter = manifest.max_iter if manifest.max_iter is not None else 50
    report = find_periodic(config, xi0, fp_tol=manifest.fp_tol, max_iter=max_iter)

    out = manifest.output_dir
    index = report.distinguished_interval
    rows = []
    for m, t_r, sup_diff in report.iterates:
        rows.append({"m": m, "t_r": t_r, "sup_diff": sup_diff})
    fixed_name = "fixed_profile.csv"
    write_profile_csv(out / fixed_name, grid.nodes, report.fixed_profile.values)
    post = splice(report.fixed_profile, config, index)
    write_profile_csv(out / "profile_eta_post_fixed.csv", grid.nodes, post.values)
    _write_json(
        out / "report.json",
        {
            "command": "find-periodic",
            "converged": report.converged,
            "period": report.period,
            "distinguished_interval": index,
            "iterates": rows,
            "fixed_csv": fixed_name,
        },
    )
    return 0


def _cmd_verify(manifest: RunManifest, config: ModelConfig) -> int:
    from .periodic import verify_periodic

    out = manifest.output_dir
    report_path = out / "report.json"
    if report_path.exists():
        previous = read_scenario(report_path)
        if not isinstance(previous, dict):
            raise ParseError(f"{report_path}: not a JSON object")
        if previous.get("command") == "find-periodic" and not previous.get("converged", False):
            print("verify: fixed-point search did not converge", file=sys.stderr)
            return 1
    if config.mode == "coupled":
        raise DomainError("verify needs decoupled mode: the fixed profile carries no height")
    grid = build_grid(config)
    fixed = read_profile_csv(out / "fixed_profile.csv", grid)
    tol = manifest.fp_tol if manifest.fp_tol is not None else 1.0e-5
    ok = verify_periodic(config, fixed, tol)
    _write_json(
        out / "verify_report.json",
        {"command": "verify", "verified": ok, "tol": tol},
    )
    if not ok:
        print("verify: orbit failed the two-period check", file=sys.stderr)
        return 1
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "stationary": _cmd_stationary,
    "find-periodic": _cmd_find_periodic,
    "verify": _cmd_verify,
}


def run(manifest: RunManifest) -> int:
    """Execute one command; exceptions are mapped onto the exit codes."""
    try:
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
        config = resolve_config(manifest)
        _write_manifest(manifest, config)
        report = validate(config)
        if manifest.command in ("find-periodic", "verify") and config.alpha <= 0.0:
            raise DomainError(
                f"{manifest.command} needs alpha > 0: the return map is built on "
                "the alpha > 0 stationary profile"
            )
        if manifest.command == "simulate" and not report.condition_C_holds:
            print(
                "warning: sign condition on the forcing fails; "
                "rupture times are not guaranteed finite",
                file=sys.stderr,
            )
        return _DISPATCH[manifest.command](manifest, config)
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, FileNotFoundError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rupturesim",
        description="Simulate a periodically forced diffusing liquid layer with rupture resets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", choices=sorted(PRESETS))
        source.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (created if absent)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scenario field (dotted keys reach numerics)",
        )
        p.add_argument("--max-events", type=int)
        p.add_argument("--t-end", type=float)
        p.add_argument("--eta0", help="initial condition, e.g. const:0.03")
        p.add_argument("--fp-tol", type=float)
        p.add_argument("--max-iter", type=int)
    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    for flag, value in (("--t-end", args.t_end), ("--fp-tol", args.fp_tol)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{flag} must be finite and positive")
    for flag, count in (("--max-iter", args.max_iter), ("--max-events", args.max_events)):
        if count is not None and count < 1:
            raise DomainError(f"{flag} must be at least 1")
    overrides = tuple(parse_override(text) for text in args.overrides)
    return RunManifest(
        command=args.command,
        config_source=args.preset if args.preset else args.config,
        output_dir=Path(args.out),
        overrides=overrides,
        max_events=args.max_events,
        t_end=args.t_end,
        eta0=args.eta0,
        fp_tol=args.fp_tol,
        max_iter=args.max_iter,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = manifest_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(manifest)


def entry() -> int:
    """Process entry of ``python -m rupturesim.cli`` and the ``rupturesim``
    script: :func:`main`, then ``gc.freeze()``, so that the collections
    while the interpreter finalizes do not walk every object the imports
    made.  atexit handlers, stream flushes and module teardown still run.
    :func:`main` itself freezes nothing, since it is also called
    in-process."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
