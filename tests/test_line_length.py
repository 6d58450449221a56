"""No line of ``src/bofsent`` or ``tests`` is longer than 120 characters."""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 120


def test_source_lines_fit_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for pattern in ("src/bofsent/*.py", "tests/*.py")
        for path in sorted(ROOT.glob(pattern))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert long_lines == [], f"lines over {LIMIT} characters: {long_lines}"
