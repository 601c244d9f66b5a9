"""lex2vec benchmark: three workloads against the real CLI and library.

    python3 bench/run.py --workload cli-label --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run it from anywhere inside a source tree that holds ``src/lex2vec``; it uses
that source, never an installed copy.  A run generates (or finds cached) the
seeded corpus of its workload, computes the expected output with its own
numpy reference, and runs one operation at a time, from a single client, for
``--seconds`` seconds.  Every output is checked against the reference.

With ``--trace 0`` it reports the end-to-end metrics ``wall_s``,
``peak_rss_mb`` and ``setup_s``; with ``--trace 1`` it alternates untraced and
traced operations and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.  A record
with provenance, every operation and every span is written under
``bench/.runs``.  ``NOTES.md`` says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
WORKER = BENCH / "worker.py"
LAUNCHER = BENCH / "launcher.py"

# The body of the ``lex2vec`` console script.
CONSOLE = "import sys; from lex2vec.cli import main; sys.exit(main())"
STARTUP_PROBE = "import lex2vec.cli"
CLI_SETUPS = 11  # start-up probes per CLI run
LIB_SETUPS = 3  # parse + normalize + load set-ups per lib-sweep run
GRID_SIZE = 20
RUN_DEADLINE_S = 170

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "embeddings.parse_s": "s",
    "embeddings.parse_rss_rise_mb": "MB",
    "embeddings.normalize_s": "s",
    "embeddings.input_mb": "MB",
    "embeddings.words": "count",
    "lexicon.load_s": "s",
    "lexicon.merge_s": "s",
    "lexicon.entries": "count",
    "lexicon.lookup_calls": "count",
    "lexicon.lookup_s": "s",
    "lexicon.lookup_hit_ratio": "ratio",
    "lexicon.lookup_useful_ratio": "ratio",
    "labeling.label_s": "s",
    "labeling.calls": "count",
    "labeling.band_hits": "count",
    "labeling.band_density": "ratio",
    "labeling.contributor_records": "count",
    "labeling.cap_s": "s",
    "labeling.rss_rise_mb": "MB",
    "metrics.sweep_s": "s",
    "metrics.cells": "count",
    "report.render_s": "s",
    "report.document_s": "s",
    "report.dumps_s": "s",
    "report.output_mb": "MB",
    "report.rss_rise_mb": "MB",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    shape: str
    cli_args: tuple[str, ...] = ()  # empty for the library workload
    theta: float = 0.75
    cap: int = 0


WORKLOADS = {
    "cli-label": Workload("large", ("label", "--theta", "0.75"), 0.75),
    "lib-sweep": Workload("large"),
    "cli-contrib": Workload(
        "small",
        ("label", "--json", "--contributors", "--filter", "cap:3", "--theta", "0.7"),
        0.7,
        3,
    ),
}


class Launcher:
    """Spawns measured children through ``launcher.py`` (see its docstring).

    Children still running ``RUN_DEADLINE_S`` after the current workload
    started are killed, so a run ends in time even if the program hangs.
    """

    def __init__(self):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT,
        )

    def spawn(self, argv: list[str], stdout_path: Path) -> dict:
        """Run one child; time it from spawn to exit and read its peak RSS."""
        request = {
            "argv": argv,
            "stdout": str(stdout_path),
            "stderr": str(stdout_path.with_suffix(".err")),
            "cwd": str(ROOT),
            "env": {**os.environ, "PYTHONPATH": str(SRC)},
            "timeout": max(0.0, self.deadline - time.monotonic()),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench: the launcher process died")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return None


# -- references --------------------------------------------------------------


def prepare_reference(workload: Workload, seed: int):
    """Return ``check(op) -> error or None`` for the workload's outputs."""
    draw = corpus.draw(corpus.SHAPES[workload.shape], seed)
    scaled = reference.normalized(draw.millionths)
    nrc, liwc = reference.nrc_entries(draw), reference.liwc_entries(draw)
    vocabulary = draw.vocabulary
    del draw

    if not workload.cli_args:
        resources = [
            ("nrc", reference.Labeled(scaled, vocabulary, nrc)),
            ("liwc", reference.Labeled(scaled, vocabulary, liwc)),
        ]

        def check_sweep(op: dict) -> str | None:
            expected = reference.sweep_tsv(resources, op["grid"]).decode("utf-8")
            return None if op["output"] == expected else "sweep TSV differs from the reference"

        return check_sweep

    labeled = reference.Labeled(scaled, vocabulary, reference.merged(nrc, liwc))
    if workload.cap:
        expected_doc = reference.contributors_document(
            labeled, workload.theta, workload.cap, "nrc+liwc"
        )

        def check_document(op: dict) -> str | None:
            try:
                document = json.loads(Path(op["output_path"]).read_bytes())
                document = reference.canonical_document(document)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                return f"unreadable JSON output: {exc}"
            return None if document == expected_doc else "JSON document differs from the reference"

        return check_document

    expected_tsv = reference.label_tsv(labeled, workload.theta)

    def check_tsv(op: dict) -> str | None:
        same = Path(op["output_path"]).read_bytes() == expected_tsv
        return None if same else "TSV output differs from the reference"

    return check_tsv


def op_error(op: dict, check) -> str | None:
    """Why an operation failed (non-zero exit or wrong output), or None."""
    if op["exit"] != 0:
        return f"exit code {op['exit']}"
    return check(op)


# -- workloads ---------------------------------------------------------------


def run_cli(workload: Workload, manifest: dict, args, work: Path, launcher: Launcher) -> dict:
    paths = manifest["paths"]
    cli_argv = [*workload.cli_args, "-e", paths["embeddings"],
                "-l", f"{paths['nrc']}:nrc", "-l", f"{paths['liwc']}:liwc"]
    setup_s = []
    if not args.trace:
        for n in range(CLI_SETUPS):
            probe = launcher.spawn([sys.executable, "-c", STARTUP_PROBE], work / f"probe-{n}.out")
            if probe["exit"] != 0:
                raise SystemExit(f"bench: 'import lex2vec.cli' failed; see {work}")
            setup_s.append(probe["wall_s"])

    ops = []
    window = time.perf_counter()
    min_ops = 2 if args.trace else 1
    while len(ops) < min_ops or time.perf_counter() - window < args.seconds:
        n = len(ops)
        traced = bool(args.trace) and n % 2 == 1
        op_id = f"op-{n}"
        output = work / f"{op_id}.out"
        if traced:
            spans_path = work / f"{op_id}.spans.json"
            argv = [sys.executable, str(WORKER), "cli", str(spans_path), op_id, *cli_argv]
        else:
            argv = [sys.executable, "-c", CONSOLE, *cli_argv]
        op = {"op": op_id, "traced": traced, "output_path": str(output),
              **launcher.spawn(argv, output)}
        if traced and op["exit"] == 0:
            trace = json.loads(spans_path.read_text())
            main = next(s for s in trace["spans"] if s["name"] == "cli.main")
            metrics = trace["op_metrics"][op_id]
            # perf_counter is the system-wide monotonic clock, so the child's
            # span times and the parent's spawn time compare directly.
            metrics["cli.startup_s"] = main["start"] - op["started"]
            # The replay after cli.main returns is bookkeeping, not tracing cost.
            op["process_s"] = op["wall_s"]
            op["wall_s"] -= trace["bookkeeping_s"]
            op.update(spans=trace["spans"], layer_metrics=metrics)
        ops.append(op)
    return {"setup_s": setup_s, "ops": ops}


def sweep_grids(seed: int, count: int) -> list[list[float]]:
    """``count`` distinct 20-theta grids within (0.55, 0.97], step 0.001."""
    rng = np.random.default_rng([seed, 20])
    grids, seen = [], set()
    while len(grids) < count:
        grid = (rng.choice(np.arange(551, 971), size=GRID_SIZE, replace=False) / 1000).tolist()
        key = tuple(sorted(grid))
        if key not in seen:
            seen.add(key)
            grids.append(grid)
    return grids


def run_lib(workload: Workload, manifest: dict, args, work: Path, launcher: Launcher) -> dict:
    request = {
        "paths": manifest["paths"],
        "grids": sweep_grids(args.seed, 200),
        "seconds": args.seconds,
        "setups": LIB_SETUPS,
        "trace": args.trace,
    }
    request_path, result_path = work / "request.json", work / "result.json"
    request_path.write_text(json.dumps(request))
    argv = [sys.executable, str(WORKER), "lib-sweep", str(request_path), str(result_path)]
    child = launcher.spawn(argv, work / "worker.out")
    if child["exit"] != 0:
        return {"setup_s": [], "ops": [], "peak_rss_mb": child["peak_rss_mb"],
                "error": f"worker exited with {child['exit']}; see {work}"}
    result = json.loads(result_path.read_text())
    for op in result["ops"]:
        op["exit"] = 0
    layer = result.get("op_metrics", {})
    for op in result["ops"]:
        if op["op"] in layer:
            op["layer_metrics"] = layer[op["op"]]
    return {
        "setup_s": result["setup_s"],
        "ops": result["ops"],
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_layer_metrics": [v for k, v in layer.items() if k.startswith("setup-")],
        "spans": result.get("spans", []),
    }


# -- reporting ---------------------------------------------------------------


def end_to_end(workload: Workload, run: dict) -> dict[str, float]:
    ops = [op for op in run["ops"] if not op["traced"]]
    if workload.cli_args:
        peak = statistics.median(op["peak_rss_mb"] for op in ops)
    else:
        peak = run["peak_rss_mb"]
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(run["setup_s"]),
    }


def per_layer(run: dict) -> dict[str, float]:
    """Median per operation over the operations in which each layer ran.

    Resident-memory rises take the maximum instead: they are high-water
    marks, which a repeated set-up does not raise again.  A layer that did
    not run in the workload reads 0.
    """
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for values in [*run.get("setup_layer_metrics", []),
                   *(op["layer_metrics"] for op in run["ops"] if "layer_metrics" in op)]:
        for name, value in values.items():
            if name in samples:
                samples[name].append(value)
    out = {}
    for name, values in samples.items():
        if not values:
            out[name] = 0.0
        elif name.endswith("rss_rise_mb"):
            out[name] = max(values)
        else:
            out[name] = statistics.median(values)
    traced = [op["wall_s"] for op in run["ops"] if op["traced"]]
    untraced = [op["wall_s"] for op in run["ops"] if not op["traced"]]
    if traced and untraced:
        out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def git_sha() -> str:
    """HEAD of the source tree, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, args, launcher: Launcher) -> dict:
    workload = WORKLOADS[name]
    launcher.deadline = time.monotonic() + RUN_DEADLINE_S
    manifest = corpus.ensure(workload.shape, args.seed)
    check = prepare_reference(workload, args.seed)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    work = RUNS / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = run_cli if workload.cli_args else run_lib
    run = runner(workload, manifest, args, work, launcher)

    failures = []
    for op in run["ops"]:
        op["error"] = error = op_error(op, check)
        if error:
            failures.append(f"{op['op']}: {error}")
        op.pop("output", None)
        if "output_path" in op:
            Path(op.pop("output_path")).unlink(missing_ok=True)
    if "error" in run:
        failures.append(run["error"])

    attempted = max(1, len(run["ops"]))
    failed = len(failures)
    ok = failed == 0 and bool(run["ops"])
    if not run["ops"]:
        metrics, units = {}, {}
    elif args.trace:
        metrics, units = per_layer(run), PER_LAYER
    else:
        metrics, units = end_to_end(workload, run), END_TO_END

    files = manifest["files"]
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "corpus": {
            "shape_name": manifest["shape_name"],
            "shape": manifest["shape"],
            "seed": manifest["seed"],
            "bytes": {k: f["bytes"] for k, f in files.items()},
            "sha256": {k: f["sha256"] for k, f in files.items()},
            "generate_s": manifest["generate_s"],
            "cache_hit": manifest["cache_hit"],
        },
        "setup_s": run["setup_s"],
        "ops": run["ops"],
        "spans": run.get("spans", []),  # lib-sweep; CLI spans are per operation
        "failures": failures,
        "metrics": metrics,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for leftover in [*work.glob("*.out"), *work.glob("*.err")]:
        if leftover.suffix == ".out" or not leftover.stat().st_size:
            leftover.unlink()

    wall = [op["wall_s"] for op in run["ops"] if not op["traced"]]
    print(f"{name} seed={args.seed} trace={args.trace}: corpus {manifest['shape_name']} "
          f"{files['embeddings']['bytes'] / 1e6:.1f} MB "
          f"({'cached' if manifest['cache_hit'] else 'generated in %.1f s' % manifest['generate_s']})")
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    if not args.trace and wall:
        tail = tail_percentile(wall)
        print(f"  wall_s samples: n={len(wall)}, "
              + (f"p{tail[0]:g}={tail[1]:.4f} s" if tail else "too few for a tail percentile"))
    print(f"  fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  record: {work / 'record.json'}")
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="lex2vec benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lex2vec" / "cli.py").is_file():
        print(f"bench: no lex2vec source at {SRC / 'lex2vec'}", file=sys.stderr)
        return 2

    launcher = Launcher()
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args, launcher)
        else:
            result = {name: run_workload(name, args, launcher) for name in WORKLOADS}
    finally:
        launcher.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
