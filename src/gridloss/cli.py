"""Command-line front end: analyze, tune, sweep, simulate, scaling.

Exit codes: 0 on success, 1 for computation failures (instability, file
content problems, bracketing or step-size errors), 2 for usage errors
(unknown flags, malformed or invalid flag values).  File outputs are
written atomically, with a JSON metadata sidecar recording every resolved
input so a run can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .dynamics import ControllerParams, assemble_dapi, assemble_droop
from .errors import GridlossError, ValidationError
from .h2 import h2_dapi_closed_form, h2_droop_closed_form, h2_full_gramian, h2_modal
from .network import (
    NetworkGraph,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    ingest_edge_list,
    laplacian_eigenvalues,
    susceptance_laplacian,
)
from .sim import SimConfig, _atomic_writer, empirical_h2, export_trajectory, integrated_loss, phase_perturbation, simulate
from .tuning import gamma_star_vs_k, loss_reduction_vs_k, optimal_gamma, optimal_gamma_complete, sweep

# largest --grid or --n-grid accepted; a larger one is refused before it is allocated
_GRID_MAX_POINTS = 10**7


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridloss",
        description="Transient resistive loss analysis for droop- and DAPI-controlled inverter networks",
    )
    parser.add_argument("--version", action="version", version=f"gridloss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    analyze = sub.add_parser("analyze", help="squared H2 norms by all three routes plus per-mode table")
    _add_network_flags(analyze)
    _add_controller_flags(analyze, gamma=True)
    _add_common_flags(analyze, out_required=False)
    analyze.set_defaults(handler=_cmd_analyze)

    tune = sub.add_parser("tune", help="optimal communication gain for the given network")
    _add_network_flags(tune)
    _add_controller_flags(tune, gamma=False)
    _add_common_flags(tune, out_required=True)
    tune.set_defaults(handler=_cmd_tune)

    swp = sub.add_parser("sweep", help="DAPI norm along one controller parameter")
    _add_network_flags(swp)
    _add_controller_flags(swp, gamma=True)
    swp.add_argument("--param", required=True, choices=("gamma", "k", "tau", "m"),
                     help="parameter to sweep")
    swp.add_argument("--grid", required=True, metavar="START:STOP:STEP",
                     help="inclusive grid (endpoint kept when within half a step)")
    swp.add_argument("--at-optimal-gamma", action="store_true",
                     help="with --param k: per-k optimal gain and relative loss reduction over droop")
    _add_common_flags(swp, out_required=True)
    swp.set_defaults(handler=_cmd_sweep)

    sim = sub.add_parser("simulate", help="stochastic time-domain run with loss tracking")
    _add_network_flags(sim)
    _add_controller_flags(sim, gamma=True)
    sim.add_argument("--controller", choices=("droop", "dapi"), default="dapi",
                     help="control architecture to simulate (default dapi)")
    sim.add_argument("--dt", type=float, default=0.005, help="integration step (default 0.005)")
    sim.add_argument("--horizon", type=float, default=100.0, help="final time (default 100)")
    sim.add_argument("--burn-in", type=float, default=0.0, help="time discarded by the estimator (default 0)")
    sim.add_argument("--noise", type=float, default=1.0, help="disturbance intensity (default 1)")
    sim.add_argument("--init-perturb", type=float, default=0.0, metavar="SCALE",
                     help="zero-mean random initial phase perturbation of this scale (default 0)")
    sim.add_argument("--stride", type=int, default=1, help="keep every stride-th sample in the CSV (default 1)")
    _add_common_flags(sim, out_required=True)
    sim.set_defaults(handler=_cmd_simulate)

    scal = sub.add_parser("scaling", help="loss vs network size for line and complete topologies")
    scal.add_argument("--n-grid", required=True, metavar="START:STOP:STEP",
                      help="network sizes, e.g. 10:100:10")
    scal.add_argument("--seeds", type=int, default=20, help="weight draws averaged per size (default 20)")
    scal.add_argument("--b-range", metavar="LO,HI", default="0.5,1.5",
                      help="uniform susceptance range (default 0.5,1.5)")
    scal.add_argument("--alpha", type=float, default=1.0, help="conductance-to-susceptance ratio (default 1.0)")
    _add_controller_flags(scal, gamma=True)
    _add_common_flags(scal, out_required=True)
    scal.set_defaults(handler=_cmd_scaling)
    return parser


def _add_network_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--line", type=int, metavar="N", help="line (path) network with N buses")
    group.add_argument("--complete", type=int, metavar="N", help="complete network with N buses")
    group.add_argument("--random", metavar="N,P", help="connected Erdos-Renyi draw: N buses, edge probability P")
    group.add_argument("--file", metavar="PATH", help="edge-list file ('alpha <value>' header, '<i> <j> <b>' lines)")
    p.add_argument("--b", type=float, default=1.0, help="uniform susceptance for --line/--complete (default 1.0)")
    p.add_argument("--b-range", metavar="LO,HI", default="0.5,1.5",
                   help="susceptance range for --random (default 0.5,1.5)")
    p.add_argument("--alpha", type=float, default=None,
                   help="conductance-to-susceptance ratio (default 1.0; overrides the file header)")


def _add_controller_flags(p: argparse.ArgumentParser, gamma: bool) -> None:
    p.add_argument("--m", type=float, default=1.0, help="droop gain (default 1.0)")
    p.add_argument("--k", type=float, default=1.0, help="integral time constant (default 1.0)")
    p.add_argument("--tau", type=float, default=1.0, help="filter time constant (default 1.0)")
    if gamma:
        p.add_argument("--gamma", type=float, default=1.0, help="communication gain ratio (default 1.0)")


def _add_common_flags(p: argparse.ArgumentParser, out_required: bool) -> None:
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed, >= 0 (default 0)")
    p.add_argument("--out", metavar="PATH", required=out_required,
                   help="output file" + ("" if out_required else " (default: report to stdout)"))
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative seeds."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------- resolution

def _resolve_network(args) -> tuple[NetworkGraph, dict]:
    alpha = 1.0 if args.alpha is None else args.alpha
    if args.line is not None:
        graph = build_line_graph(args.line, [args.b] * max(args.line - 1, 0), alpha)
        meta = {"topology": "line", "n_nodes": graph.n_nodes, "b": args.b}
    elif args.complete is not None:
        graph = build_complete_graph(args.complete, args.b, alpha)
        meta = {"topology": "complete", "n_nodes": graph.n_nodes, "b": args.b}
    elif args.random is not None:
        n, p = _parse_random(args.random)
        b_range = _parse_pair(args.b_range, "--b-range")
        graph = build_random_connected_graph(n, p, b_range, alpha, seed=args.seed)
        meta = {"topology": "random", "n_nodes": n, "edge_probability": p,
                "b_range": list(b_range), "seed": args.seed}
    else:
        graph = ingest_edge_list(args.file)
        if args.alpha is not None and args.alpha != graph.alpha:
            graph = NetworkGraph(graph.n_nodes, graph.edges, args.alpha)
        meta = {"topology": "file", "path": args.file, "n_nodes": graph.n_nodes}
    meta["alpha"] = graph.alpha
    meta["n_edges"] = graph.weights.size
    return graph, meta


def _resolve_params(args) -> ControllerParams:
    return ControllerParams(m=args.m, tau=args.tau, k=args.k, gamma=getattr(args, "gamma", 1.0))


def _parse_random(text: str) -> tuple[int, float]:
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"--random expects 'N,P' (e.g. 20,0.3), got {text!r}") from None


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"{flag} expects 'LO,HI', got {text!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ValidationError(f"grid must be START:STOP:STEP, got {text!r}") from None
    if not (np.isfinite(start) and np.isfinite(stop) and np.isfinite(step)):
        raise ValidationError(f"grid bounds must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValidationError(f"grid needs step > 0 and stop >= start, got {text!r}")
    # floor(span + 0.5) + 1 points; span is inf when the division overflows
    span = (stop - start) / step
    if span + 0.5 >= _GRID_MAX_POINTS:
        raise ValidationError(f"grid has more than {_GRID_MAX_POINTS} points, got {text!r}")
    return start + step * np.arange(int(math.floor(span + 0.5)) + 1)


def _parse_int_grid(text: str) -> list[int]:
    values = _parse_grid(text)
    out = []
    for v in values.tolist():
        rounded = int(round(v))
        if abs(v - rounded) > 1e-9:
            raise ValidationError(f"size grid must contain integers, got {v!r}")
        out.append(rounded)
    return out


# ------------------------------------------------------------------- output

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_csv(path, columns, rows, comments=()) -> None:
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    with _atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    with _atomic_writer(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_metadata(out_path, command: str, inputs: dict, fmt: str) -> None:
    payload = {
        "tool": "gridloss",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "output": {"path": str(out_path), "format": fmt},
    }
    _write_json(f"{out_path}.meta.json", payload)


def _params_meta(params: ControllerParams, gamma: bool = True) -> dict:
    meta = {"m": params.m, "k": params.k, "tau": params.tau}
    if gamma:
        meta["gamma"] = params.gamma
    return meta


# ----------------------------------------------------------------- handlers

def _cmd_analyze(args) -> int:
    graph, net_meta = _resolve_network(args)
    params = _resolve_params(args)
    alpha = graph.alpha
    spectrum = laplacian_eigenvalues(susceptance_laplacian(graph))

    droop = {
        "closed_form": h2_droop_closed_form(alpha, params.m, graph.n_nodes),
        "modal_lyapunov": h2_modal(spectrum, params, alpha, "droop"),
        "full_gramian": h2_full_gramian(assemble_droop(graph, params)),
    }
    dapi = {
        "closed_form": h2_dapi_closed_form(alpha, params, spectrum),
        "modal_lyapunov": h2_modal(spectrum, params, alpha, "dapi"),
        "full_gramian": h2_full_gramian(assemble_dapi(graph, params)),
    }

    def _spread(values: dict) -> float:
        norms = [res.squared_norm for res in values.values()]
        top = max(norms)
        return (top - min(norms)) / top if top > 0 else 0.0

    deviation = max(_spread(droop), _spread(dapi))
    droop_norm = droop["closed_form"].squared_norm
    dapi_norm = dapi["closed_form"].squared_norm
    below = dapi_norm < droop_norm
    reduction = 1.0 - dapi_norm / droop_norm if droop_norm > 0 else 0.0
    mode_rows = [
        (idx + 2, spectrum.eigenvalues[idx + 1],
         droop["closed_form"].per_mode[idx], dapi["closed_form"].per_mode[idx])
        for idx in range(graph.n_nodes - 1)
    ]

    inputs = {"network": net_meta, "params": _params_meta(params), "seed": args.seed}
    if args.out:
        if args.format == "json":
            payload = {
                "network": net_meta,
                "params": _params_meta(params),
                "droop": {k: v.squared_norm for k, v in droop.items()},
                "dapi": {k: v.squared_norm for k, v in dapi.items()},
                "max_rel_deviation": deviation,
                "dapi_below_droop": below,
                "loss_reduction": reduction,
                "per_mode": [
                    {"mode": mode, "eigenvalue": lam, "droop": d, "dapi": a}
                    for mode, lam, d, a in mode_rows
                ],
            }
            _write_json(args.out, payload)
        else:
            comments = ["command: analyze"]
            comments += [f"droop_{k} = {_fmt(v.squared_norm)}" for k, v in droop.items()]
            comments += [f"dapi_{k} = {_fmt(v.squared_norm)}" for k, v in dapi.items()]
            comments.append(f"max_rel_deviation = {deviation:.3e}")
            comments.append(f"dapi_below_droop = {'true' if below else 'false'}")
            comments.append(f"loss_reduction = {_fmt(reduction)}")
            _write_csv(args.out, ("mode", "eigenvalue", "droop", "dapi"),
                       [(str(mode), lam, d, a) for mode, lam, d, a in mode_rows], comments)
        _write_metadata(args.out, "analyze", inputs, args.format)
        print(f"wrote {args.out} ({len(mode_rows)} modes); "
              f"droop {_fmt(droop_norm)}, dapi {_fmt(dapi_norm)}, max deviation {deviation:.2e}")
        return 0

    line = f"{net_meta['topology']}, {graph.n_nodes} nodes, {net_meta['n_edges']} edges, alpha = {_fmt(alpha)}"
    print(f"network: {line}")
    print(f"controller: m = {_fmt(params.m)}, k = {_fmt(params.k)}, "
          f"tau = {_fmt(params.tau)}, gamma = {_fmt(params.gamma)}")
    print()
    print("squared H2 norm (steady-state expected resistive loss, unit noise):")
    print(f"  {'method':<16} {'droop':<18} {'dapi':<18}")
    for key in ("closed_form", "modal_lyapunov", "full_gramian"):
        print(f"  {key:<16} {_fmt(droop[key].squared_norm):<18} {_fmt(dapi[key].squared_norm):<18}")
    print(f"  max relative deviation across methods: {deviation:.3e}")
    print()
    verdict = "yes" if below else "no"
    print(f"dapi below droop: {verdict} (loss reduction {100.0 * reduction:.2f}%)")
    print()
    print("per-mode contributions (closed form):")
    print(f"  {'mode':<6} {'eigenvalue':<16} {'droop':<16} {'dapi':<16}")
    for mode, lam, d, a in mode_rows:
        print(f"  {mode:<6} {_fmt(lam):<16} {_fmt(d):<16} {_fmt(a):<16}")
    return 0


def _cmd_tune(args) -> int:
    graph, net_meta = _resolve_network(args)
    params = ControllerParams(m=args.m, tau=args.tau, k=args.k)
    alpha = graph.alpha
    spectrum = laplacian_eigenvalues(susceptance_laplacian(graph))
    result = optimal_gamma(spectrum, params, alpha)
    droop_norm = h2_droop_closed_form(alpha, params.m, graph.n_nodes).squared_norm
    reduction = 1.0 - result.norm_at_star / droop_norm if droop_norm > 0 else 0.0
    closed = None
    if args.complete is not None:
        closed = optimal_gamma_complete(graph.n_nodes, args.b, params.k, params.m, params.tau)

    inputs = {"network": net_meta, "params": _params_meta(params, gamma=False), "seed": args.seed}
    if args.format == "json":
        payload = {
            "gamma_star": result.gamma_star,
            "norm_at_star": result.norm_at_star,
            "droop_norm": droop_norm,
            "loss_reduction": reduction,
            "iterations": result.iterations,
            "bracket": list(result.bracket),
            "gamma_star_closed_form": closed,
        }
        _write_json(args.out, payload)
    else:
        columns = ("gamma_star", "norm_at_star", "droop_norm", "loss_reduction",
                   "iterations", "bracket_lo", "bracket_hi", "gamma_star_closed_form")
        row = [result.gamma_star, result.norm_at_star, droop_norm, reduction,
               str(result.iterations), result.bracket[0], result.bracket[1],
               "" if closed is None else _fmt(closed)]
        _write_csv(args.out, columns, [row])
    _write_metadata(args.out, "tune", inputs, args.format)
    print(f"gamma_star = {_fmt(result.gamma_star)}; dapi norm {_fmt(result.norm_at_star)} "
          f"vs droop {_fmt(droop_norm)} (reduction {100.0 * reduction:.2f}%)")
    return 0


def _cmd_sweep(args) -> int:
    graph, net_meta = _resolve_network(args)
    params = _resolve_params(args)
    alpha = graph.alpha
    grid = _parse_grid(args.grid)
    spectrum = laplacian_eigenvalues(susceptance_laplacian(graph))
    inputs = {
        "network": net_meta,
        "params": _params_meta(params),
        "parameter": args.param,
        "grid": args.grid,
        "at_optimal_gamma": bool(args.at_optimal_gamma),
        "seed": args.seed,
    }

    if args.at_optimal_gamma:
        if args.param != "k":
            raise ValidationError("--at-optimal-gamma only applies to --param k")
        reduction = loss_reduction_vs_k(spectrum, alpha, params.m, params.tau, grid)
        gains = gamma_star_vs_k(spectrum, alpha, params.m, params.tau, grid)
        rows = list(zip(grid, reduction.values, gains.values))
        if args.format == "json":
            _write_json(args.out, {
                "parameter": "k",
                "grid": [float(v) for v in grid],
                "loss_reduction": [float(v) for v in reduction.values],
                "gamma_star": [float(v) for v in gains.values],
            })
        else:
            _write_csv(args.out, ("k", "loss_reduction", "gamma_star"), rows)
    else:
        curve = sweep(spectrum, params, alpha, args.param, grid)
        if args.param == "m":
            droop_values = [h2_droop_closed_form(alpha, float(m_val), graph.n_nodes).squared_norm
                            for m_val in grid]
        else:
            droop_values = [h2_droop_closed_form(alpha, params.m, graph.n_nodes).squared_norm] * grid.size
        rows = list(zip(grid, curve.values, droop_values))
        if args.format == "json":
            _write_json(args.out, {
                "parameter": args.param,
                "grid": [float(v) for v in grid],
                "dapi": [float(v) for v in curve.values],
                "droop": [float(v) for v in droop_values],
            })
        else:
            _write_csv(args.out, (args.param, "dapi", "droop"), rows)
    _write_metadata(args.out, "sweep", inputs, args.format)
    print(f"wrote {args.out} ({grid.size} grid points)")
    return 0


def _cmd_simulate(args) -> int:
    graph, net_meta = _resolve_network(args)
    params = _resolve_params(args)
    if args.controller == "droop":
        ss = assemble_droop(graph, params)
    else:
        ss = assemble_dapi(graph, params)
    initial = None
    if args.init_perturb > 0:
        initial = phase_perturbation(graph.n_nodes, ss.n_states, args.init_perturb, args.seed)
    config = SimConfig(dt=args.dt, horizon=args.horizon, burn_in=args.burn_in,
                       noise_intensity=args.noise, seed=args.seed, initial_state=initial)
    trajectory = simulate(ss, ss.l_g, config)

    total = integrated_loss(trajectory)
    summary = {
        "integrated_loss": total,
        "final_loss": float(trajectory.instantaneous_loss[-1]),
        "samples": int(trajectory.times.size),
    }
    estimate_note = ""
    if config.noise_intensity > 0:
        try:
            estimate, stderr = empirical_h2(trajectory, config)
        except ValidationError:
            pass
        else:
            summary["empirical_squared_norm"] = estimate
            summary["stderr"] = stderr
            estimate_note = f"; empirical squared norm {_fmt(estimate)} +/- {_fmt(stderr)}"

    inputs = {
        "network": net_meta,
        "params": _params_meta(params),
        "controller": args.controller,
        "dt": args.dt,
        "horizon": args.horizon,
        "burn_in": args.burn_in,
        "noise_intensity": args.noise,
        "init_perturb": args.init_perturb,
        "stride": args.stride,
        "seed": args.seed,
    }
    if args.format == "json":
        _write_json(args.out, summary)
    else:
        export_trajectory(trajectory, graph.n_nodes, args.out, stride=args.stride)
    _write_metadata(args.out, "simulate", inputs, args.format)
    print(f"wrote {args.out}; integrated loss {_fmt(total)}{estimate_note}")
    return 0


def _cmd_scaling(args) -> int:
    sizes = _parse_int_grid(args.n_grid)
    if any(n < 2 for n in sizes):
        raise ValidationError(f"network sizes must be >= 2, got {sizes}")
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    b_range = _parse_pair(args.b_range, "--b-range")
    params = _resolve_params(args)
    alpha = args.alpha

    rows = []
    for n in sizes:
        droop_norm = h2_droop_closed_form(alpha, params.m, n).squared_norm
        line_norms = []
        complete_norms = []
        for draw in range(args.seeds):
            rng = np.random.default_rng((args.seed, draw, n))
            line = build_line_graph(n, rng.uniform(b_range[0], b_range[1], n - 1), alpha)
            complete = build_complete_graph(n, rng.uniform(b_range[0], b_range[1], n * (n - 1) // 2), alpha)
            for graph, bucket in ((line, line_norms), (complete, complete_norms)):
                spectrum = laplacian_eigenvalues(susceptance_laplacian(graph))
                bucket.append(h2_dapi_closed_form(alpha, params, spectrum).squared_norm)
        rows.append((float(n), droop_norm, float(np.mean(complete_norms)), float(np.mean(line_norms))))

    inputs = {
        "n_grid": args.n_grid,
        "seeds": args.seeds,
        "b_range": list(b_range),
        "alpha": alpha,
        "params": _params_meta(params),
        "seed": args.seed,
    }
    columns = ("N", "droop", "dapi_complete", "dapi_line")
    if args.format == "json":
        _write_json(args.out, {
            "columns": list(columns),
            "rows": [[v for v in row] for row in rows],
        })
    else:
        _write_csv(args.out, columns, [(str(int(n)), d, c, l) for n, d, c, l in rows])
    _write_metadata(args.out, "scaling", inputs, args.format)
    print(f"wrote {args.out} ({len(rows)} sizes x {args.seeds} draws)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GridlossError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
