"""Modules bound at once and executed on first use, and the rules of index tables.

`load_on_first_use` puts a module object into `sys.modules` at once and
runs the module's code when an attribute of it is first read.  The
package registers its six submodules this way, and `monoids` and
`lattices` share one numpy bound this way: word-level work (embedding,
derivation search, deduction-only verdicts) never touches a table, so it
runs neither numpy nor any submodule it does not read.  The index tables of
both modules follow the two rules below, `index_dtype` for how they are
stored and `gather` for how they are read; each reads numpy only when it
is called, so neither loads it at import.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType
from typing import TYPE_CHECKING


def load_on_first_use(name: str) -> ModuleType:
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
    np = load_on_first_use("numpy")


def index_dtype(order: int):
    """The dtype of a table whose entries are indices below `order`:
    uint8 up to 256 elements, uint16 up to 65 536, int32 above."""
    if order <= 1 << 8:
        return np.uint8
    if order <= 1 << 16:
        return np.uint16
    return np.int32


def gather(table, rows, cols):
    """table[rows, cols] for a 2-d table, with rows and cols broadcast.

    Each cell is taken by its row-major position, computed in intp: a 2-d
    gather would first cast each compact index array to intp, and runs
    about twice as slow."""
    return table.ravel()[np.multiply(rows, table.shape[1], dtype=np.intp) + cols]
