"""Only ``atomic.py`` in ``src/bofsent`` parses binary files or opens a file for writing.

Every other module writes through ``atomic`` (``atomic.write_text``, ``atomic.write_framed``), so each
artifact is written atomically, and reads its binary formats through ``atomic.read_framed``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Calls only atomic.py may make, wherever their object comes from (struct, numpy or a Path).
RESERVED = {"unpack_from", "frombuffer", "write_bytes", "write_text"}


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an ``open(file, mode)`` or ``path.open(mode)`` call, if it is given."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _opens_for_writing(call: ast.Call) -> bool:
    if not (
        isinstance(call.func, ast.Name) and call.func.id == "open"
        or isinstance(call.func, ast.Attribute) and call.func.attr == "open"
    ):
        return False
    mode = _mode(call)
    if mode is None:
        return False
    # A mode that is not a literal string cannot be shown to only read.
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def _violations(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "atomic":
            continue
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in RESERVED:
            found.append((node.lineno, name))
        elif _opens_for_writing(node):
            found.append((node.lineno, "open for writing"))
    return found


def test_only_atomic_frames_parses_or_writes_files():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted((ROOT / "src" / "bofsent").glob("*.py"))
        if path.name != "atomic.py"
        for line, name in _violations(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"file I/O outside atomic.py: {found}"


def test_the_check_sees_each_kind_of_call():
    source = "\n".join(
        [
            "HEADER.unpack_from(data)",
            "np.frombuffer(body)",
            "path.write_bytes(data)",
            "Path(p).write_text(text)",
            "open(p, 'wb')",
            "path.open(mode='a')",
            "open(p, mode)",
            "Path(p).open('r+')",
            # none of these is reserved
            "atomic.write_text(p, text)",
            "open(p)",
            "path.open('r', encoding='utf-8')",
            "path.read_bytes()",
        ]
    )
    assert [line for line, _ in _violations(source)] == list(range(1, 9))
