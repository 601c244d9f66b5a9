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
from typing import BinaryIO, Iterable, Sequence

from .embeddings import (
    _SCOPE_AXES,
    EmbeddingFormat,
    NormalizedEmbeddingTable,
    _parse_numbers,
    parse_embeddings,
    read_embeddings,
)
from .errors import Lex2vecError
from .labeling import DimensionLabeling, Theta, cap_labels, label_dimensions
from .lexicon import LEXICON_FORMATS, Lexicon, load_lexicon, merge_lexicons
from .metrics import AVG_MODES, SweepReport, coverage, sweep
from .report import (
    _labeling_json_parts,
    dumps_document,
    render_labeling_tsv,
    render_sweep_tsv,
    report_to_document,
)

DEFAULT_THETA = 0.75
DEFAULT_THETA_GRID = (0.81, 0.79, 0.77, 0.75)


def _number_arg(text: str) -> float:
    """One number in the grammar of embedding file values, not ``float()``'s."""
    tokens = text.split()
    try:
        values = _parse_numbers(tokens, ndmin=1) if len(tokens) == 1 else ()
    except ValueError:
        values = ()
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return float(values[0])


def _theta_arg(text: str) -> float:
    try:
        return Theta(_number_arg(text)).value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _theta_grid_arg(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split() if p]
    if not parts:
        raise argparse.ArgumentTypeError("theta grid must contain at least one value")
    grid = tuple(_theta_arg(p) for p in parts)
    for index, theta in enumerate(grid):
        if theta in grid[:index]:  # a usage error, found before any input is read
            raise argparse.ArgumentTypeError(f"the theta grid repeats {theta}")
    return grid


def _lexicon_arg(text: str) -> tuple[str, str]:
    path, sep, fmt = text.rpartition(":")
    if not sep or not path or fmt not in LEXICON_FORMATS:
        raise argparse.ArgumentTypeError(
            f"expected PATH:FORMAT with FORMAT one of {', '.join(LEXICON_FORMATS)}"
        )
    return path, fmt


def _filter_arg(text: str) -> int | None:
    """The per-dimension label limit; ``cap:N`` and ``topk:N`` are the same filter."""
    if text == "none":
        return None
    kind, sep, raw_limit = text.partition(":")
    if not sep or kind not in ("cap", "topk"):
        raise argparse.ArgumentTypeError("expected 'none', 'cap:LIMIT', or 'topk:K'")
    if not (raw_limit.isascii() and raw_limit.isdigit()):  # int() takes '+1_0' and '٣'
        raise argparse.ArgumentTypeError(f"limit {raw_limit!r} is not an integer")
    limit = int(raw_limit)
    if limit < 1:
        raise argparse.ArgumentTypeError("filter limit must be >= 1")
    return limit


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
        "--embedding-format", choices=sorted(fmt.value for fmt in EmbeddingFormat),
        default="auto",
        help="input layout (default: auto-detect from the first line)",
    )
    common.add_argument(
        "--norm-scope", choices=tuple(_SCOPE_AXES), default="dimension",
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
        "--avg-mode", choices=AVG_MODES, default="all",
        help="dimensions counted in the TSV average column (default: all)",
    )
    averaging.add_argument(
        "--distinct-labels", action="store_true",
        help="average distinct labels per dimension instead of label mass",
    )

    label = subparsers.add_parser(
        "label", parents=[common, single_theta], allow_abbrev=False,
        help="name every dimension at a single theta",
    )
    label.add_argument(
        "--contributors", action="store_true", dest="keep_contributors",
        help="include per-dimension contributor records in JSON output",
    )

    sweep_cmd = subparsers.add_parser(
        "sweep", parents=[common, averaging], allow_abbrev=False,
        help="evaluate a theta grid for each lexical resource",
    )
    sweep_cmd.add_argument(
        "--theta-grid", type=_theta_grid_arg, default=DEFAULT_THETA_GRID,
        metavar="T1,T2,...",
        help="comma-separated thetas (default: %s)" % ",".join(map(str, DEFAULT_THETA_GRID)),
    )

    subparsers.add_parser(
        "metrics", parents=[common, single_theta, averaging], allow_abbrev=False,
        help="coverage metrics for one theta",
    )
    return parser


def _load_normalized(args: argparse.Namespace) -> NormalizedEmbeddingTable:
    # The parser rescales its own buffer, so the matrix is held once.
    if args.embeddings == "-":
        # Read like a path: lines end at "\n" only, and the parser names the
        # line of a byte that is not UTF-8.
        lines = (line.decode("utf-8", "surrogateescape") for line in sys.stdin.buffer)
        return parse_embeddings(lines, args.embedding_format, _scope=args.norm_scope)
    return read_embeddings(args.embeddings, args.embedding_format, _scope=args.norm_scope)


def _compute(
    args: argparse.Namespace, table: NormalizedEmbeddingTable, lexicons: list[Lexicon]
) -> DimensionLabeling | SweepReport:
    """A sweep report, or the labeling of the merged lexicons that label and metrics share."""
    if args.command == "sweep":
        return sweep(table, lexicons, args.theta_grid, distinct=args.distinct_labels)
    # Only label's JSON document carries contributor records.
    keep = args.command == "label" and args.keep_contributors and args.json_output
    labeling = label_dimensions(
        table, merge_lexicons(lexicons), args.theta, keep_contributors=keep
    )
    return labeling if args.label_filter is None else cap_labels(labeling, args.label_filter)


def _render(args: argparse.Namespace, result: DimensionLabeling | SweepReport) -> Iterable[str]:
    """The output text in parts: label's JSON document a dimension at a time, any other
    output as one part.  metrics prints its coverage row as sweep prints rows."""
    if args.command == "label":
        if args.json_output:
            return _labeling_json_parts(result)
        return (render_labeling_tsv(result),)
    if args.command == "metrics":
        result = SweepReport((coverage(result, args.distinct_labels),))
    if args.json_output:
        return (dumps_document(report_to_document(result)),)
    return (render_sweep_tsv(result, avg_mode=args.avg_mode),)


def _write(parts: Iterable[str], stream: BinaryIO) -> None:
    # UTF-8 whatever the locale, so stdout and -o carry the same bytes; a part at a
    # time, so the whole text is never held twice.
    for part in parts:
        stream.write(part.encode("utf-8"))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: parse, lexicon, label and write, naming the stage that fails."""
    args = build_parser().parse_args(argv)
    stage = "parse"
    try:
        table = _load_normalized(args)
        stage = "lexicon"
        lexicons = [load_lexicon(path, fmt) for path, fmt in args.lexicons]
        stage = "label"
        result = _compute(args, table, lexicons)
        # Rendering needs neither input; freeing them first lowers peak memory.
        del table, lexicons
        parts = _render(args, result)
        stage = "write"
        if args.output is None or args.output == "-":
            sys.stdout.flush()
            _write(parts, sys.stdout.buffer)
            sys.stdout.buffer.flush()
        else:
            with open(args.output, "wb") as stream:
                _write(parts, stream)
    except (Lex2vecError, OSError, ValueError) as exc:
        print(f"lex2vec: {stage} error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
