"""The processes the benchmark measures, besides the plain CLI.

``python3 bench/worker.py cli SPANS_JSON OP_ID ARGS...`` runs ``lex2vec ARGS``
in-process with tracing on and writes the spans and layer metrics to
SPANS_JSON.  The CLI's own output goes to standard output as usual.

``python3 bench/worker.py lib-sweep REQUEST_JSON RESULT_JSON`` runs the
library workload: it sets up (parse, normalize, load two lexicons) several
times, then calls ``sweep`` and ``render_sweep_tsv`` on one grid after another
until the requested seconds have passed, and writes timings and outputs to
RESULT_JSON.  With tracing on, set-up is traced and every second sweep is.

Both need ``lex2vec`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys
import time


def traced_cli(spans_path: str, op: str, argv: list[str]) -> int:
    from tracer import Tracer

    from lex2vec import cli

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    started = time.perf_counter()
    tracer.end_op()
    record = {
        "spans": tracer.spans,
        "op_metrics": tracer.op_metrics,
        "bookkeeping_s": time.perf_counter() - started,
    }
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return code


def lib_sweep(request_path: str, result_path: str) -> int:
    from tracer import Tracer

    from lex2vec import embeddings, lexicon, metrics, report

    with open(request_path, encoding="utf-8") as stream:
        request = json.load(stream)
    paths = request["paths"]
    tracer = Tracer() if request["trace"] else None

    setup_s = []
    for n in range(request["setups"]):
        table = lexicons = None  # drop the previous set-up before the next
        if tracer:
            tracer.op = f"setup-{n}"
            tracer.install()
        started = time.perf_counter()
        table = embeddings.normalize(embeddings.read_embeddings(paths["embeddings"]))
        lexicons = [
            lexicon.load_lexicon(paths["nrc"], "nrc"),
            lexicon.load_lexicon(paths["liwc"], "liwc"),
        ]
        setup_s.append(time.perf_counter() - started)
        if tracer:
            tracer.uninstall()
            tracer.end_op()

    ops = []
    window = time.perf_counter()
    min_ops = 2 if tracer else 1
    for n, grid in enumerate(request["grids"]):
        if len(ops) >= min_ops and time.perf_counter() - window >= request["seconds"]:
            break
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.op = f"sweep-{n}"
            tracer.install()
        started = time.perf_counter()
        text = report.render_sweep_tsv(metrics.sweep(table, lexicons, grid))
        wall_s = time.perf_counter() - started
        if traced:
            tracer.uninstall()
            tracer.end_op()
        ops.append({"op": f"sweep-{n}", "grid": grid, "wall_s": wall_s,
                    "traced": traced, "output": text})

    result = {"setup_s": setup_s, "ops": ops}
    if tracer:
        result.update(spans=tracer.spans, op_metrics=tracer.op_metrics)
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "cli":
        spans_path, op, *argv = rest
        return traced_cli(spans_path, op, argv)
    if mode == "lib-sweep":
        return lib_sweep(*rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
