"""The README's examples run as printed: the quick start's two commands give
the output blocks shown after them, and the library example runs."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lex2vec.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

# A fenced block: its language (empty for printed output) and its body.
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
_HEREDOC = re.compile(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", re.M | re.S)


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def quick_start_runs() -> list[tuple[str, str]]:
    """Each ``lex2vec`` command of the quick start with the block printed after it."""
    runs = []
    blocks = _BLOCK.findall(section("Quick start"))
    for (lang, body), (next_lang, output) in zip(blocks, blocks[1:]):
        commands = [line for line in body.splitlines() if line.startswith("lex2vec ")]
        if lang == "sh" and commands:
            assert next_lang == "" and len(commands) == 1
            runs.append((commands[0], output))
    return runs


@pytest.fixture
def quick_start_files(tmp_path, monkeypatch):
    for name, text in _HEREDOC.findall(section("Quick start")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("command, output", quick_start_runs(), ids=["label", "sweep"])
def test_quick_start_prints_what_it_shows(quick_start_files, capsys, command, output):
    argv = shlex.split(command)
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == output


def test_library_use_runs(quick_start_files):
    (code,) = [body for lang, body in _BLOCK.findall(section("Library use")) if lang == "python"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert printed.getvalue().splitlines()[-1] == "0.75 0.0 1.5"
