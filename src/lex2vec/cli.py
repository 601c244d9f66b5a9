"""Command-line interface.

Subcommands:
    label    name every embedding dimension at a single theta
    sweep    evaluate a theta grid per lexical resource
    metrics  report coverage metrics for a single configuration

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .embeddings import (
    EmbeddingFormat,
    NormalizedEmbeddingTable,
    normalize,
    parse_embeddings,
    read_embeddings,
)
from .errors import Lex2vecError
from .labeling import DimensionLabeling, Theta, cap_labels, label_dimensions, top_k_frequent
from .lexicon import LEXICON_FORMATS, Lexicon, load_lexicon, merge_lexicons
from .metrics import SweepReport, _evaluate_cell, sweep
from .report import (
    dumps_document,
    labeling_to_document,
    render_labeling_tsv,
    render_sweep_tsv,
    report_to_document,
)

DEFAULT_THETA = 0.75
DEFAULT_THETA_GRID = (0.81, 0.79, 0.77, 0.75)

_EMBEDDING_FORMATS = {
    "auto": EmbeddingFormat.AUTO,
    "word2vec": EmbeddingFormat.WORD2VEC_TEXT,
    "glove": EmbeddingFormat.GLOVE_TEXT,
}


def _theta_arg(text: str) -> float:
    try:
        return Theta(float(text)).value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _theta_grid_arg(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split() if p]
    if not parts:
        raise argparse.ArgumentTypeError("theta grid must contain at least one value")
    return tuple(_theta_arg(p) for p in parts)


def _lexicon_arg(text: str) -> tuple[str, str]:
    path, sep, fmt = text.rpartition(":")
    if not sep or not path or fmt not in LEXICON_FORMATS:
        raise argparse.ArgumentTypeError(
            f"expected PATH:FORMAT with FORMAT one of {', '.join(LEXICON_FORMATS)}"
        )
    return path, fmt


def _filter_arg(text: str) -> tuple[str, int] | None:
    if text == "none":
        return None
    kind, sep, raw_limit = text.partition(":")
    if not sep or kind not in ("cap", "topk"):
        raise argparse.ArgumentTypeError("expected 'none', 'cap:LIMIT', or 'topk:K'")
    try:
        limit = int(raw_limit)
    except ValueError:
        raise argparse.ArgumentTypeError(f"limit {raw_limit!r} is not an integer") from None
    if limit < 1:
        raise argparse.ArgumentTypeError("filter limit must be >= 1")
    return kind, limit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lex2vec",
        description="Name word-embedding dimensions with lexical-resource labels.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--embeddings", "-e", required=True, metavar="PATH",
        help="embedding file in Word2Vec or GloVe text form ('-' reads stdin)",
    )
    common.add_argument(
        "--embedding-format", choices=sorted(_EMBEDDING_FORMATS), default="auto",
        help="input layout (default: auto-detect from the first line)",
    )
    common.add_argument(
        "--norm-scope", choices=("dimension", "word", "global"), default="dimension",
        help="what min-max normalization ranges over (default: dimension)",
    )
    common.add_argument(
        "--lexicon", "-l", action="append", type=_lexicon_arg, required=True,
        metavar="PATH:FORMAT", dest="lexicons",
        help=f"lexical resource; FORMAT is one of {', '.join(LEXICON_FORMATS)} (repeatable)",
    )
    common.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write here instead of stdout",
    )
    common.add_argument(
        "--json", action="store_true", dest="json_output",
        help="emit a JSON document instead of TSV",
    )

    single_theta = argparse.ArgumentParser(add_help=False)
    single_theta.add_argument(
        "--theta", type=_theta_arg, default=DEFAULT_THETA,
        help=f"band threshold, 0.5 < theta <= 1.0 (default: {DEFAULT_THETA})",
    )
    single_theta.add_argument(
        "--filter", type=_filter_arg, default=None, dest="label_filter",
        metavar="SPEC", help="per-dimension label filter: none, cap:LIMIT, or topk:K",
    )

    averaging = argparse.ArgumentParser(add_help=False)
    averaging.add_argument(
        "--avg-mode", choices=("all", "named"), default="all",
        help="dimensions counted in the TSV average column (default: all)",
    )
    averaging.add_argument(
        "--distinct-labels", action="store_true",
        help="average distinct labels per dimension instead of label mass",
    )

    label = subparsers.add_parser(
        "label", parents=[common, single_theta],
        help="name every dimension at a single theta",
    )
    label.add_argument(
        "--contributors", action="store_true", dest="keep_contributors",
        help="include per-dimension contributor records in JSON output",
    )

    sweep_cmd = subparsers.add_parser(
        "sweep", parents=[common, averaging],
        help="evaluate a theta grid for each lexical resource",
    )
    sweep_cmd.add_argument(
        "--theta-grid", type=_theta_grid_arg, default=DEFAULT_THETA_GRID,
        metavar="T1,T2,...",
        help="comma-separated thetas (default: %s)" % ",".join(map(str, DEFAULT_THETA_GRID)),
    )

    subparsers.add_parser(
        "metrics", parents=[common, single_theta, averaging],
        help="coverage metrics for one theta",
    )
    return parser


def _load_normalized(args: argparse.Namespace) -> NormalizedEmbeddingTable:
    fmt = _EMBEDDING_FORMATS[args.embedding_format]
    if args.embeddings == "-":
        table = parse_embeddings(sys.stdin, fmt)
    else:
        table = read_embeddings(args.embeddings, fmt)
    return normalize(table, args.norm_scope)


def _apply_filter(
    labeling: DimensionLabeling, label_filter: tuple[str, int] | None
) -> DimensionLabeling:
    if label_filter is None:
        return labeling
    kind, limit = label_filter
    if kind == "cap":
        return cap_labels(labeling, limit)
    return top_k_frequent(labeling, limit)


def _render_report(args: argparse.Namespace, report: SweepReport) -> str:
    if args.json_output:
        return dumps_document(report_to_document(report))
    return render_sweep_tsv(report, avg_mode=args.avg_mode)


def _label(
    args: argparse.Namespace, table: NormalizedEmbeddingTable, lexicons: list[Lexicon]
) -> str:
    """Name every dimension at a single theta."""
    labeling = label_dimensions(
        table, merge_lexicons(lexicons), args.theta, keep_contributors=args.keep_contributors
    )
    labeling = _apply_filter(labeling, args.label_filter)
    if args.json_output:
        return dumps_document(labeling_to_document(labeling))
    return render_labeling_tsv(labeling)


def _sweep(
    args: argparse.Namespace, table: NormalizedEmbeddingTable, lexicons: list[Lexicon]
) -> str:
    """Evaluate the theta grid per resource."""
    report = sweep(table, lexicons, args.theta_grid, distinct=args.distinct_labels)
    return _render_report(args, report)


def _metrics(
    args: argparse.Namespace, table: NormalizedEmbeddingTable, lexicons: list[Lexicon]
) -> str:
    """One report row for the merged lexicons at a single theta."""
    lexicon = merge_lexicons(lexicons)
    labeling = _apply_filter(label_dimensions(table, lexicon, args.theta), args.label_filter)
    row = _evaluate_cell(labeling, args.theta, lexicon.resource_name, args.distinct_labels)
    return _render_report(args, SweepReport((row,)))


_COMMANDS = {"label": _label, "sweep": _sweep, "metrics": _metrics}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: parse, lexicon, label and write, naming the stage that fails."""
    args = build_parser().parse_args(argv)
    stage = "parse"
    try:
        table = _load_normalized(args)
        stage = "lexicon"
        lexicons = [load_lexicon(path, fmt) for path, fmt in args.lexicons]
        stage = "label"
        text = _COMMANDS[args.command](args, table, lexicons)
        stage = "write"
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text, encoding="utf-8")
    except (Lex2vecError, OSError, ValueError) as exc:
        print(f"lex2vec: {stage} error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
