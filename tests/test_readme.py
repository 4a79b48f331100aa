"""The README's Python examples run as written, and its CLI examples use
flags the parser accepts, with an example of every command."""

import argparse
import re
import shlex
from pathlib import Path

from quadgauss import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) >= 2
    namespace: dict = {}
    for m in blocks:  # later blocks use names the earlier ones define
        # pad with newlines so a traceback points at the README's own line
        source = "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        exec(compile(source, str(README), "exec"), namespace)


def test_cli_block_parses():
    # parse only: a flag renamed or removed in the CLI fails here until the
    # README follows; no command runs and no instance file is read
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("quadgauss ")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        commands.add(parser.parse_args(argv).command)
    # every command the parser offers has an example
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands == set(subparsers.choices)
