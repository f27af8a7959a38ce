from pathlib import Path

import deteval

MAX_LINE = 95


def test_no_source_line_is_wider_than_the_limit():
    wide = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(Path(deteval.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert wide == []
