"""Every ``python -m repro.cli ...`` command the docs show must parse.

Commands are taken from the fenced code blocks of README.md and
EXPERIMENTS.md: ``\\`` continuations are joined and trailing ``#``
comments dropped, then the arguments after ``repro.cli`` go through
``build_parser().parse_args``.  Parsing is what is checked, not running:
a documented command argparse rejects is a broken doc.
"""

import contextlib
import io
import os
import re
import shlex

from repro.cli.main import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DOCS = ("README.md", "EXPERIMENTS.md")
#: A command line: optional ``VAR=value`` prefixes, then the CLI.
COMMAND = re.compile(r"^(\w+=\S*\s+)*python -m repro\.cli\b")


def documented_commands():
    """``(location, argv)`` for each CLI command in the docs' code blocks."""
    commands = []
    for doc in DOCS:
        with open(os.path.join(ROOT, doc)) as handle:
            lines = handle.read().splitlines()
        in_block = False
        pending = None
        for number, line in enumerate(lines, 1):
            if line.strip().startswith("```"):
                in_block = not in_block
                continue
            if not in_block:
                continue
            if pending is None:
                if not COMMAND.match(line.strip()):
                    continue
                pending = (f"{doc}:{number}", "")
            location, text = pending
            text += " " + line.strip()
            if text.endswith("\\"):
                pending = (location, text[:-1])
                continue
            pending = None
            words = shlex.split(text, comments=True)
            argv = words[words.index("repro.cli") + 1:]
            commands.append((location, argv))
    return commands


def test_docs_show_cli_commands():
    # Guards the extraction itself: an empty list would pass vacuously.
    assert len(documented_commands()) >= 30


def test_every_documented_command_parses():
    parser = build_parser()
    rejected = []
    for location, argv in documented_commands():
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parser.parse_args(argv)
        except SystemExit:
            message = stderr.getvalue().strip().splitlines()[-1:]
            rejected.append(f"{location}: {' '.join(argv)} -- {message}")
    assert not rejected, "\n".join(rejected)
