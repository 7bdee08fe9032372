"""The README's library quick tour and CLI block run and give the values
they state."""

import ast
import json
import shlex
from fractions import Fraction
from pathlib import Path

from subcover import ProjectiveIndex, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour():
    """Run the quick-tour code block; return its namespace and the value of
    each bare expression statement, in order."""
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            code = compile(ast.Module([node], []), "README.md", "exec")
            exec(code, namespace)
    return namespace, values


def test_quick_tour_states_its_values():
    namespace, values = quick_tour()
    ok, least, count, planned, spread, mixed, assigned = values
    assert namespace["cover"].count == 43 and ok is True
    assert least == 5
    assert count == planned == 537002017 == 2**29 + 2**17 + 2**5 + 1
    assert len(spread.parts) == 5
    assert len(mixed.parts) == 9 and mixed.parts[0].dim == 3
    index, witness = assigned
    assert index == ProjectiveIndex(i=1, tail=(Fraction(7, 5),))
    assert witness.validate((0, 5, 7, 1, 2))


def cli_block():
    """The lines of the CLI section's sh block, each split into its
    arguments after ``subcover`` and its trailing comment."""
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in filter(None, block.splitlines()):
        command, _, comment = line.partition(" #")
        prog, *argv = shlex.split(command)
        assert prog == "subcover"
        yield argv, comment.strip()


def test_cli_block_runs_and_prints_its_outputs(capsys, monkeypatch, tmp_path):
    # a comment that parses as JSON is the line's whole stdout; the verify
    # line re-checks the document that the cover line printed
    monkeypatch.chdir(tmp_path)
    lines = list(cli_block())
    assert len(lines) == 11
    literal = 0
    for argv, comment in lines:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "cover":
            (tmp_path / "cover.json").write_text(out)
        try:
            json.loads(comment)
        except ValueError:
            continue
        assert out == comment + "\n", argv
        literal += 1
    assert literal == 7
