"""The README's examples: each `$ logmut ...` block, run through the CLI,
must print what the README shows, byte for byte, and each ```python block
must run without error."""
import re
import shlex
from pathlib import Path

from logmut.cli import main

README = Path(__file__).parent.parent / "README.md"
EXAMPLE = re.compile(r"```text\n\$ logmut ([^\n]*)\n(.*?)```", re.DOTALL)
PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)


def test_readme_examples_match_the_cli(capsys):
    examples = EXAMPLE.findall(README.read_text())
    assert [argv.split()[0] for argv, _ in examples] == [
        "validate", "mutate", "decide", "enumerate", "report",
    ]
    for argv, shown in examples:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == shown, argv


def test_readme_python_blocks_run():
    """optimize=0 keeps the blocks' assert statements under `python -O`."""
    blocks = PYTHON.findall(README.read_text())
    assert blocks  # the Library quick start, at least
    for block in blocks:
        exec(compile(block, str(README), "exec", optimize=0), {})
