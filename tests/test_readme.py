"""The README's library quick tour runs and gives the values it states."""

import ast
from fractions import Fraction
from pathlib import Path

from subcover import ProjectiveIndex

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
