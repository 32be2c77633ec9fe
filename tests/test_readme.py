"""The fenced python blocks of README.md run, in order, in one namespace,
so the library example cannot drift from the library."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
