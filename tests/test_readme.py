import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_in_brief_runs():
    # a public name removed or renamed under the quick start fails here
    section = README.read_text(encoding="utf-8").split("## Library in brief", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["epi"].shape == (namespace["te"].n,)
