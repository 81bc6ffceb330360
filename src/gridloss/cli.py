"""Command-line front end: analyze, tune, sweep, simulate, scaling.

Exit codes: 0 on success, 1 for computation failures (instability, file
content problems, bracketing or step-size errors), 2 for usage errors
(unknown flags, malformed or invalid flag values).  File outputs are
written atomically, with a JSON metadata sidecar recording every resolved
input so a run can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dynamics import CONTROLLER_KINDS, ControllerParams, assemble_dapi, assemble_droop
from .errors import GridlossError, ValidationError
from .h2 import h2_dapi_closed_form, h2_droop_closed_form, h2_full_gramian, h2_modal
from .network import (
    NetworkGraph,
    _check_alpha,
    _generator,
    _validated_b_range,
    build_complete_graph,
    build_line_graph,
    build_random_connected_graph,
    ingest_edge_list,
    laplacian_eigenvalues,
)
from .sim import SimConfig, _atomic_writer, empirical_h2, export_trajectory, integrated_loss, phase_perturbation, simulate
from .tuning import (
    SWEEPABLE,
    _loss_reduction,
    _over_grid,
    gamma_star_vs_k,
    loss_reduction_vs_k,
    optimal_gamma,
    optimal_gamma_complete,
    sweep,
)

# largest --grid or --n-grid accepted; a larger one is refused before it is allocated
_GRID_MAX_POINTS = 10**7

# relative spread within which the three norm routes must agree
_ROUTE_RTOL = 1e-7


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
    swp.add_argument("--param", required=True, choices=SWEEPABLE,
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
    sim.add_argument("--controller", choices=CONTROLLER_KINDS, default="dapi",
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

def _resolve(args) -> tuple[NetworkGraph, dict, ControllerParams]:
    """The network flags resolved: the graph, the inputs the sidecar records
    for it (network and controller) and the controller parameters."""
    alpha = 1.0 if args.alpha is None else args.alpha
    if args.line is not None:
        graph = build_line_graph(args.line, [args.b] * max(args.line - 1, 0), alpha)
        meta = {"topology": "line", "n_nodes": graph.n_nodes, "b": args.b}
    elif args.complete is not None:
        graph = build_complete_graph(args.complete, args.b, alpha)
        meta = {"topology": "complete", "n_nodes": graph.n_nodes, "b": args.b}
    elif args.random is not None:
        n, p = _parse_pair(args.random, int, "--random expects 'N,P' (e.g. 20,0.3)")
        b_range = _parse_pair(args.b_range, float, "--b-range expects 'LO,HI'")
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
    params, params_meta = _resolve_params(args)
    return graph, {"network": meta, "params": params_meta}, params


def _resolve_params(args) -> tuple[ControllerParams, dict]:
    """The controller parameters and their sidecar record; ``gamma`` is
    recorded only by the commands that take ``--gamma``."""
    gamma = getattr(args, "gamma", None)
    params = ControllerParams(m=args.m, tau=args.tau, k=args.k, gamma=1.0 if gamma is None else gamma)
    meta = {"m": params.m, "k": params.k, "tau": params.tau}
    if gamma is not None:
        meta["gamma"] = params.gamma
    return params, meta


def _parse_pair(text: str, first: type, expects: str) -> tuple:
    """Two comma-separated values, the first read by ``first`` and the
    second as a float; otherwise ``expects`` names the form in the error."""
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return first(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"{expects}, got {text!r}") from None


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


def _write_out(args, command: str, inputs: dict, payload, table=None, export=None) -> None:
    """Write ``--out`` in the chosen format, then its ``.meta.json`` sidecar
    recording the tool version, ``inputs`` and the seed.

    Only the chosen format's content is built: ``payload()`` gives the JSON
    document; for CSV, ``table()`` gives ``(columns, rows[, comments])``,
    or ``export(path)`` writes the file itself."""
    if args.format == "json":
        _write_json(args.out, payload())
    elif export is not None:
        export(args.out)
    else:
        _write_csv(args.out, *table())
    _write_json(f"{args.out}.meta.json", {
        "tool": "gridloss",
        "version": __version__,
        "command": command,
        "inputs": {**inputs, "seed": args.seed},
        "output": {"path": str(args.out), "format": args.format},
    })


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


# ----------------------------------------------------------------- handlers

def _cmd_analyze(args) -> int:
    graph, inputs, params = _resolve(args)
    spectrum = laplacian_eigenvalues(graph)
    alpha = graph.alpha
    droop = h2_droop_closed_form(alpha, params, graph.n_nodes)
    norms = {"droop": {"closed_form": droop.squared_norm,
                       "modal_lyapunov": h2_modal(spectrum, params, alpha, "droop").squared_norm}}
    dapi = h2_dapi_closed_form(alpha, params, spectrum)
    norms["dapi"] = {"closed_form": dapi.squared_norm,
                     "modal_lyapunov": h2_modal(spectrum, params, alpha, "dapi").squared_norm}
    # each full Gramian on its own loop; the modal routes have already
    # refused tau = 0, gamma = 0 and every overflow
    norms["droop"]["full_gramian"] = h2_full_gramian(assemble_droop(graph, params)).squared_norm
    norms["dapi"]["full_gramian"] = h2_full_gramian(assemble_dapi(graph, params)).squared_norm

    spreads = {}
    for kind, routes in norms.items():
        top = max(routes.values())
        spreads[kind] = (top - min(routes.values())) / top if top > 0 else 0.0
        if spreads[kind] > _ROUTE_RTOL:
            print(f"warning: the three {kind} norm routes spread {spreads[kind]:.3e} (relative), "
                  f"beyond their {_ROUTE_RTOL:g} agreement contract", file=sys.stderr)
    deviation = max(spreads.values())
    below = dapi.squared_norm < droop.squared_norm
    reduction = _loss_reduction(dapi.squared_norm, droop.squared_norm)
    modes = [(idx + 2, spectrum.eigenvalues[idx + 1], droop.per_mode[idx], dapi.per_mode[idx])
             for idx in range(graph.n_nodes - 1)]

    if args.out:
        _write_out(args, "analyze", inputs, lambda: {
            **inputs,
            **norms,
            "max_rel_deviation": deviation,
            "dapi_below_droop": below,
            "loss_reduction": reduction,
            "per_mode": [{"mode": mode, "eigenvalue": lam, "droop": d, "dapi": a} for mode, lam, d, a in modes],
        }, lambda: (
            ("mode", "eigenvalue", "droop", "dapi"),
            [(str(mode), lam, d, a) for mode, lam, d, a in modes],
            ["command: analyze",
             *(f"{kind}_{route} = {_fmt(norm)}" for kind, routes in norms.items() for route, norm in routes.items()),
             f"max_rel_deviation = {deviation:.3e}",
             f"dapi_below_droop = {'true' if below else 'false'}",
             f"loss_reduction = {_fmt(reduction)}"],
        ))
        print(f"wrote {args.out} ({len(modes)} modes); droop {_fmt(droop.squared_norm)}, "
              f"dapi {_fmt(dapi.squared_norm)}, max deviation {deviation:.2e}")
        return 0

    net = inputs["network"]
    print(f"network: {net['topology']}, {graph.n_nodes} nodes, {net['n_edges']} edges, alpha = {_fmt(alpha)}")
    print(f"controller: m = {_fmt(params.m)}, k = {_fmt(params.k)}, "
          f"tau = {_fmt(params.tau)}, gamma = {_fmt(params.gamma)}")
    print()
    print("squared H2 norm (steady-state expected resistive loss, unit noise):")
    print(f"  {'method':<16} {'droop':<18} {'dapi':<18}")
    for route, norm in norms["droop"].items():
        print(f"  {route:<16} {_fmt(norm):<18} {_fmt(norms['dapi'][route]):<18}")
    print(f"  max relative deviation across methods: {deviation:.3e}")
    print()
    print(f"dapi below droop: {'yes' if below else 'no'} (loss reduction {100.0 * reduction:.2f}%)")
    print()
    print("per-mode contributions (closed form):")
    print(f"  {'mode':<6} {'eigenvalue':<16} {'droop':<16} {'dapi':<16}")
    for mode, lam, d, a in modes:
        print(f"  {mode:<6} {_fmt(lam):<16} {_fmt(d):<16} {_fmt(a):<16}")
    return 0


def _cmd_tune(args) -> int:
    graph, inputs, params = _resolve(args)
    result = optimal_gamma(laplacian_eigenvalues(graph), params, graph.alpha)
    droop_norm = h2_droop_closed_form(graph.alpha, params, graph.n_nodes).squared_norm
    reduction = _loss_reduction(result.norm_at_star, droop_norm)
    closed = None if args.complete is None else optimal_gamma_complete(graph.n_nodes, args.b, params)
    values = {"gamma_star": result.gamma_star, "norm_at_star": result.norm_at_star,
              "droop_norm": droop_norm, "loss_reduction": reduction}
    _write_out(args, "tune", inputs, lambda: {
        **values,
        "iterations": result.iterations,
        "bracket": list(result.bracket),
        "gamma_star_closed_form": closed,
    }, lambda: (
        (*values, "iterations", "bracket_lo", "bracket_hi", "gamma_star_closed_form"),
        [(*values.values(), str(result.iterations), *result.bracket, "" if closed is None else _fmt(closed))],
    ))
    print(f"gamma_star = {_fmt(result.gamma_star)}; dapi norm {_fmt(result.norm_at_star)} "
          f"vs droop {_fmt(droop_norm)} (reduction {100.0 * reduction:.2f}%)")
    return 0


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    if args.at_optimal_gamma and args.param != "k":
        raise ValidationError("--at-optimal-gamma only applies to --param k")
    graph, inputs, params = _resolve(args)
    spectrum = laplacian_eigenvalues(graph)
    alpha = graph.alpha
    # the CSV's columns in order; the JSON names the first one "grid"
    if args.at_optimal_gamma:
        columns = {
            "k": grid,
            "loss_reduction": loss_reduction_vs_k(spectrum, params, alpha, grid),
            "gamma_star": gamma_star_vs_k(spectrum, params, alpha, grid),
        }
    else:
        columns = {args.param: grid, "dapi": sweep(spectrum, params, alpha, args.param, grid)}
        # after the sweep, which names an invalid grid point by its index
        if args.param == "m":
            columns["droop"] = list(_over_grid(
                lambda q: h2_droop_closed_form(alpha, q, graph.n_nodes).squared_norm, params, "m", grid))
        else:
            columns["droop"] = [h2_droop_closed_form(alpha, params, graph.n_nodes).squared_norm] * grid.size

    def payload() -> dict:
        lists = {name: [float(v) for v in values] for name, values in columns.items()}
        return {"parameter": args.param, "grid": lists.pop(args.param), **lists}

    inputs.update(parameter=args.param, grid=args.grid, at_optimal_gamma=bool(args.at_optimal_gamma))
    _write_out(args, "sweep", inputs, payload, lambda: (tuple(columns), zip(*columns.values())))
    print(f"wrote {args.out} ({grid.size} grid points)")
    return 0


def _cmd_simulate(args) -> int:
    init_perturb = args.init_perturb + 0.0  # -0.0 read as 0.0
    if not (math.isfinite(init_perturb) and init_perturb >= 0):
        raise ValidationError(f"--init-perturb must be finite and >= 0, got {args.init_perturb!r}")
    if args.stride < 1:
        raise ValidationError(f"--stride must be >= 1, got {args.stride}")
    graph, inputs, params = _resolve(args)
    ss = (assemble_droop if args.controller == "droop" else assemble_dapi)(graph, params)
    initial = None
    if init_perturb > 0:
        # a stream of its own: the noise draws from --seed itself, whose
        # first N normals would otherwise be the perturbation (a trailing 0
        # in the seed tuple hashes like no entry, hence 1)
        initial = phase_perturbation(graph.n_nodes, ss.n_states, init_perturb, (args.seed, 1))
    config = SimConfig(dt=args.dt, horizon=args.horizon, burn_in=args.burn_in,
                       noise_intensity=args.noise, seed=args.seed, initial_state=initial)
    trajectory = simulate(ss, config)

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

    inputs.update(controller=args.controller, dt=config.dt, horizon=config.horizon, burn_in=config.burn_in,
                  noise_intensity=config.noise_intensity, init_perturb=init_perturb, stride=args.stride)
    _write_out(args, "simulate", inputs, lambda: summary,
               export=lambda path: export_trajectory(trajectory, graph.n_nodes, path, stride=args.stride))
    print(f"wrote {args.out}; integrated loss {_fmt(total)}{estimate_note}")
    return 0


def _cmd_scaling(args) -> int:
    sizes = _parse_int_grid(args.n_grid)
    if any(n < 2 for n in sizes):
        raise ValidationError(f"network sizes must be >= 2, got {sizes}")
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    b_range = _validated_b_range(_parse_pair(args.b_range, float, "--b-range expects 'LO,HI'"))
    params, params_meta = _resolve_params(args)
    alpha = _check_alpha(args.alpha)

    rows = []
    for n in sizes:
        droop_norm = h2_droop_closed_form(alpha, params, n).squared_norm
        line_norms, complete_norms = [], []
        for draw in range(args.seeds):
            rng = _generator((args.seed, draw, n))
            line = build_line_graph(n, rng.uniform(b_range[0], b_range[1], n - 1), alpha)
            complete = build_complete_graph(n, rng.uniform(b_range[0], b_range[1], n * (n - 1) // 2), alpha)
            for graph, bucket in ((line, line_norms), (complete, complete_norms)):
                bucket.append(h2_dapi_closed_form(alpha, params, laplacian_eigenvalues(graph)).squared_norm)
        rows.append((float(n), droop_norm, float(np.mean(complete_norms)), float(np.mean(line_norms))))

    inputs = {"n_grid": args.n_grid, "seeds": args.seeds, "b_range": list(b_range), "alpha": alpha,
              "params": params_meta}
    columns = ("N", "droop", "dapi_complete", "dapi_line")
    _write_out(args, "scaling", inputs, lambda: {"columns": list(columns), "rows": [list(row) for row in rows]},
               lambda: (columns, [(str(int(n)), *norms) for n, *norms in rows]))
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
    finally:
        _release_freed_memory()


def _release_freed_memory() -> None:
    """Return the heap's free pages to the OS once a command's arrays are
    freed (glibc ``malloc_trim``; elsewhere nothing happens).

    glibc keeps freed heap pages resident, and whether the caller's next
    large allocation reuses them or grows the heap depends on where small
    long-lived blocks happened to land.  A process that ran ``simulate
    --line 20 --horizon 50`` through ``main`` thirty times, reading each
    9.5 MB CSV back, peaked at about 49.5 or 55.5 MB by that layout alone.
    Trimmed, the heap holds no resident free pages between commands, so
    the peak is the live data plus what the caller allocates, whatever the
    layout."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.cache
def _malloc_trim():
    if os.name != "posix":
        return None
    import ctypes  # only here: the CLI's other paths do not need it

    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except OSError:
        return None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
