"""The input checks have one home, `pam_moments.errors`: `_check_int` and
`_check_real` hold the library's type tests for numbers, and no other
module writes its own.  Copies of them are where numpy bools once slipped
through (`type(x) is bool` does not catch `np.True_`)."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pam_moments"
# the type tests that belong to errors._check_int and errors._check_real
TYPE_TEST = re.compile(r"numbers\.Real|np\.integer|\bis bool\b|isinstance\(.*\bbool\b")
# the two readers with rules of their own: A_n entries may be integral
# floats, and the CLI reads an integer from argv text
EXEMPT = {("path_combinatorics.py", "_integers"), ("cli.py", "_int")}


def _type_tests(path: pathlib.Path) -> tuple[list[str], set[str]]:
    """The lines of path with a type test outside the exempt functions, and
    the exempt functions that hold one."""
    text = path.read_text()
    exempt = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in EXEMPT:
            exempt.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    found, used = [], set()
    for i, line in enumerate(text.splitlines(), start=1):
        if TYPE_TEST.search(line):
            if i in exempt:
                used.add(exempt[i])
            else:
                found.append(f"{path.name}:{i}: {line.strip()}")
    return found, used


def test_type_tests_for_numbers_live_in_errors_only():
    found, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            lines, names = _type_tests(path)
            found += lines
            used |= names
    assert found == []
    # the scan sees the forms it is for: the exemptions and errors.py's own
    assert used == {name for _, name in EXEMPT}
    assert _type_tests(SRC / "errors.py")[0]
    for copy in ("if type(x) is bool:", "isinstance(v, (bool, np.bool_))",
                 "isinstance(seed, (int, np.integer))", "isinstance(x, numbers.Real)"):
        assert TYPE_TEST.search(copy), copy
