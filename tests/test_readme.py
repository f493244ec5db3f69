"""The README's `$ logmut ...` examples, run through the CLI: each block's
output must match what the README shows, byte for byte."""
import re
import shlex
from pathlib import Path

from logmut.cli import main

README = Path(__file__).parent.parent / "README.md"
EXAMPLE = re.compile(r"```text\n\$ logmut ([^\n]*)\n(.*?)```", re.DOTALL)


def test_readme_examples_match_the_cli(capsys):
    examples = EXAMPLE.findall(README.read_text())
    assert [argv.split()[0] for argv, _ in examples] == [
        "validate", "mutate", "decide", "enumerate", "report",
    ]
    for argv, shown in examples:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == shown, argv
