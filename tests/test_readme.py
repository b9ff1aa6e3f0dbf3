"""The README's library example runs as written against the package's public exports."""

import re
from pathlib import Path

import numpy as np

from retrosmooth.linalg import PSD_CLAMP

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README.name}: Library quick start", "exec"), namespace)
    rho_s = namespace["rho_s"]
    assert abs(np.trace(rho_s).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho_s).min() >= -PSD_CLAMP
