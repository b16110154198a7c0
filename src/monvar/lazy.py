"""numpy, bound now and executed on first use.

Word-level work (embedding, derivation search, deduction-only verdicts)
never touches a table, so `monoids` and `lattices` share one lazily
loaded numpy: the module object exists from import time, and numpy's own
code runs when an attribute of it is first read.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType
from typing import TYPE_CHECKING


def _load_on_first_use(name: str) -> ModuleType:
    """The module `name`, executed on first attribute access.

    A module already imported is returned as it is; a missing one raises
    ModuleNotFoundError now, not at first use."""
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


if TYPE_CHECKING:
    import numpy as np
else:
    np = _load_on_first_use("numpy")
