"""The README's Python quickstart runs and prints the values its comments
state."""

import math
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("\n## Python quickstart\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_quickstart_prints_the_stated_values():
    printed = []
    exec(_quickstart(), {"print": lambda *values: printed.append(values)})
    (mean_x, product), ((mean_n, var_n),), (odd_max,) = printed
    assert abs(mean_x - math.sqrt(2.0)) <= 1e-12 and abs(product - 0.25) <= 1e-12
    assert abs(mean_n - 2.0) <= 1e-12 and abs(var_n - 2.0) <= 1e-12
    assert odd_max <= 1e-12
