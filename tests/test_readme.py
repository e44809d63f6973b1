"""The README's Python examples run against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    # The blocks run in order in one namespace, as a reader would paste
    # them; each is padded to its own line numbers in tracebacks.
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {"__name__": "readme"}
    for m in blocks:
        source = "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        exec(compile(source, str(README), "exec"), namespace)
