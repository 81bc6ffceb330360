"""The golden-output manifest: SHA-256 of every output of a fixed CLI command list.

    python tests/golden/regenerate.py          # rewrite manifest.json
    python tests/golden/regenerate.py --check  # compare; name each command that differs

Either way the commands run in one child interpreter with one BLAS thread (a
blocked product's bits depend on the thread count), with ``src`` of this
checkout first on the import path. The child works in a temporary directory
and names every file relatively, so no absolute path reaches a sidecar. For
each command it records the exit code and the hashes of stdout, stderr and
each file the command wrote. A change that moves an output changes the
manifest, and its diff names the commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
SRC = HERE.parents[1] / "src"

# a 4-bus star, and two cliques (buses 1-13, b = 946.5; buses 14-138, b =
# 0.0212) joined by one weak line: the full Gramian's and the gain search's
# hard cases, as edge files; and three lines whose indices skip 999,997 buses
STAR = "alpha 1.0\n1 2 1.0\n1 3 1.0\n1 4 1.0\n"
GAP = "alpha 1.0\n1 2 1.0\n2 1000000 1.0\n"
STIFF_DAPI = ["--m", "0.01", "--k", "100", "--tau", "1e-3", "--gamma", "1e-3"]
_DESIGN = ["--param", "k", "--grid", "0.2:10:0.2", "--at-optimal-gamma", "--format", "json"]

COMMANDS: dict[str, list[str]] = {
    # the README's seven
    "readme-analyze-line": ["analyze", "--line", "20"],
    "readme-analyze-ieee57": ["analyze", "--file", "src/gridloss/data/ieee57.edges", "--format", "json",
                              "--out", "report.json"],
    "readme-tune": ["tune", "--complete", "50", "--out", "tune.csv"],
    "readme-sweep-gamma": ["sweep", "--line", "10", "--param", "gamma", "--grid", "0:4:0.01", "--out", "sweep.csv"],
    "readme-sweep-k": ["sweep", "--complete", "50", "--param", "k", "--grid", "0.1:10:0.1", "--at-optimal-gamma",
                       "--out", "k.csv"],
    "readme-simulate": ["simulate", "--complete", "3", "--dt", "0.005", "--horizon", "5000", "--burn-in", "500",
                        "--out", "traj.csv"],
    "readme-scaling": ["scaling", "--n-grid", "10:100:10", "--seeds", "20", "--out", "scaling.csv"],
    # analyze: each network source and format, and its refusals
    "analyze-random-json": ["analyze", "--random", "150,0.05", "--seed", "3", "--format", "json", "--out", "a.json"],
    "analyze-complete-csv": ["analyze", "--complete", "5", "--b", "2.5", "--alpha", "0.3", "--out", "a.csv"],
    "analyze-alpha-zero": ["analyze", "--line", "5", "--alpha", "0"],
    "analyze-tau-zero": ["analyze", "--line", "3", "--tau", "0"],
    "analyze-gamma-zero": ["analyze", "--line", "3", "--gamma", "0"],
    "analyze-stiff-line": ["analyze", "--line", "20", "--tau", "1e-9", "--m", "0.01"],
    "analyze-weak-tie": ["analyze", "--file", "cliques.edges"],
    "analyze-b-overflow-2": ["analyze", "--line", "2", "--b", "1e308"],
    "analyze-b-overflow": ["analyze", "--line", "3", "--b", "1e308"],
    "analyze-b-overflow-9e307": ["analyze", "--line", "3", "--b", "9e307"],
    "analyze-alpha-overflow": ["analyze", "--line", "3", "--alpha", "1e308"],
    "analyze-gamma-overflow": ["analyze", "--line", "3", "--gamma", "1e308"],
    # tune
    "tune-line-json": ["tune", "--line", "10", "--format", "json", "--out", "t.json"],
    "tune-random": ["tune", "--random", "200,0.05", "--seed", "3", "--out", "t200.csv"],
    "tune-tau-zero": ["tune", "--line", "5", "--tau", "0", "--out", "t0.csv"],
    "tune-b-overflow": ["tune", "--line", "3", "--b", "1e308", "--out", "tb.csv"],
    "tune-m-overflow": ["tune", "--line", "3", "--m", "1e308", "--out", "tm.csv"],
    # sweep
    "sweep-m": ["sweep", "--line", "5", "--param", "m", "--grid", "0.5:2:0.5", "--out", "sm.csv"],
    "sweep-tau-json": ["sweep", "--line", "5", "--param", "tau", "--grid", "0:2:0.5", "--format", "json",
                       "--out", "st.json"],
    "sweep-k-zero": ["sweep", "--complete", "5", "--param", "k", "--grid", "0:1:0.5", "--at-optimal-gamma",
                     "--out", "sk.csv"],
    "sweep-b-overflow": ["sweep", "--line", "3", "--b", "1e308", "--param", "k", "--grid", "1:2:1",
                         "--out", "sb.csv"],
    # simulate
    "simulate-line-20": ["simulate", "--line", "20", "--horizon", "50", "--seed", "7", "--out", "s20.csv"],
    "simulate-droop-json": ["simulate", "--line", "5", "--controller", "droop", "--horizon", "10",
                            "--init-perturb", "0.5", "--format", "json", "--out", "s.json"],
    "simulate-stride": ["simulate", "--random", "6,0.5", "--seed", "2", "--horizon", "2", "--stride", "10",
                        "--noise", "0.5", "--out", "sr.csv"],
    "simulate-tau-zero": ["simulate", "--line", "3", "--tau", "0", "--horizon", "1", "--out", "s0.csv"],
    "simulate-gamma-zero": ["simulate", "--line", "3", "--gamma", "0", "--horizon", "1", "--out", "sg.csv"],
    "simulate-dt-too-large": ["simulate", "--line", "20", "--dt", "1", "--horizon", "10", "--out", "sd.csv"],
    "simulate-b-overflow": ["simulate", "--line", "3", "--b", "1e308", "--horizon", "1", "--out", "sb.csv"],
    "simulate-alpha-overflow": ["simulate", "--line", "3", "--alpha", "1e308", "--horizon", "1",
                                "--out", "sa.csv"],
    # scaling
    "scaling-json": ["scaling", "--n-grid", "2:6:2", "--seeds", "2", "--format", "json", "--out", "sc.json"],
    "scaling-b-overflow": ["scaling", "--n-grid", "3:3:1", "--b-range", "1e308,1e308", "--seeds", "1",
                           "--out", "scb.csv"],
    # the benchmark's design op
    **{f"design-seed-{seed}": ["sweep", "--random", "1000,0.01", "--seed", str(seed), *_DESIGN,
                               "--out", f"design{seed}.json"] for seed in range(1, 6)},
    # the full Gramian's reproducers of a missed 1e-7 contract
    "full-gramian-complete-3": ["analyze", "--complete", "3", *STIFF_DAPI],
    "full-gramian-star": ["analyze", "--file", "star.edges", "--m", "0.0078125", "--k", "128",
                          "--tau", "0.0009765625", "--gamma", "0.0009765625"],
    "full-gramian-random-seed-5": ["analyze", "--random", "60,0.1", "--seed", "5", *STIFF_DAPI],
    "full-gramian-random-seed-7": ["analyze", "--random", "60,0.1", "--seed", "7", *STIFF_DAPI],
    # a gain search with two local minima
    "tune-two-cliques": ["tune", "--file", "two_cliques.edges", "--m", "0.25", "--k", "0.145", "--tau", "3.22",
                         "--out", "tc.json", "--format", "json"],
    # an edge file with a million-bus gap, refused by count; a step below
    # rounding, refused as rounding; and ten times that step, which runs
    "analyze-index-gap": ["analyze", "--file", "gap.edges"],
    "simulate-dt-below-rounding": ["simulate", "--line", "3", "--dt", "1e-16", "--horizon", "1e-14",
                                   "--out", "sr.csv"],
    "simulate-dt-1e-15": ["simulate", "--line", "3", "--dt", "1e-15", "--horizon", "1e-13", "--out", "s15.csv"],
}


def _clique_lines(first: int, last: int, b: str) -> list[str]:
    return [f"{i} {j} {b}" for i in range(first, last + 1) for j in range(i + 1, last + 1)]


def _write_inputs(cwd: Path) -> None:
    from importlib import resources

    data = cwd / "src" / "gridloss" / "data"
    data.mkdir(parents=True)
    (data / "ieee57.edges").write_bytes((resources.files("gridloss") / "data" / "ieee57.edges").read_bytes())
    (cwd / "star.edges").write_text(STAR)
    (cwd / "gap.edges").write_text(GAP)
    cliques = ["alpha 1.0", *_clique_lines(1, 5, "1.0"), *_clique_lines(6, 10, "1.0"), "5 6 1e-10"]
    (cwd / "cliques.edges").write_text("\n".join(cliques) + "\n")
    two = ["alpha 1.0", *_clique_lines(1, 13, "946.5"), *_clique_lines(14, 138, "0.0212"), "13 14 0.01"]
    (cwd / "two_cliques.edges").write_text("\n".join(two) + "\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _run_all() -> list[dict]:
    """Run every command in this interpreter, in a temporary working
    directory, and return one record per command."""
    from gridloss.cli import main

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        os.chdir(cwd)
        _write_inputs(cwd)
        inputs = set(cwd.rglob("*"))
        for name, argv in COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            # entering catch_warnings clears the once-per-place registries, so a
            # warning shows as it would in a process of its own
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            written = sorted(p for p in cwd.rglob("*") if p not in inputs and p.is_file())
            records.append({
                "name": name,
                "argv": argv,
                "exit": code,
                "stdout": _sha256(out.getvalue().encode()),
                "stderr": _sha256(err.getvalue().encode()),
                "files": {str(p.relative_to(cwd)): _file_sha256(p) for p in written},
            })
            for path in written:
                path.unlink()
        os.chdir(HERE)
    return records


def collect() -> list[dict]:
    """The records of every command, from one child interpreter with one
    BLAS thread and this checkout's ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--run"], env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"the golden commands did not run:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(records: list[dict], manifest: list[dict]) -> list[str]:
    """One line per command whose record differs from the manifest's,
    naming what differs; commands missing on either side included."""
    want = {entry["name"]: entry for entry in manifest}
    got = {entry["name"]: entry for entry in records}
    lines = []
    for name in [*want, *(name for name in got if name not in want)]:
        if name not in got or name not in want:
            lines.append(f"{name}: {'not in the manifest' if name in got else 'no longer run'}")
            continue
        fields = [key for key in ("argv", "exit", "stdout", "stderr", "files") if got[name][key] != want[name][key]]
        if fields:
            lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--run"]:
        print(json.dumps(_run_all()))
        return 0
    records = collect()
    if argv == ["--check"]:
        lines = differences(records, json.loads(MANIFEST.read_text())["commands"])
        print("\n".join(lines))
        return 1 if lines else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    MANIFEST.write_text(json.dumps({"commands": records}, indent=1) + "\n")
    print(f"wrote {MANIFEST.name}: {len(records)} commands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
