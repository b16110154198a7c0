"""Modules bound at once and executed on first use, and the rules of index tables.

`load_on_first_use` puts a module object into `sys.modules` at once and
runs the module's code when an attribute of it is first read.  The
package registers its six submodules this way, and `monoids` and
`lattices` share one numpy bound this way: word-level work (embedding,
derivation search, deduction-only verdicts) never touches a table, so it
runs neither numpy nor any submodule it does not read.  The index tables of
both modules follow the rules below: `index_dtype` for how they and the
flat positions of their cells are stored, and `gather` for how they are
read; each reads numpy only when it is called, so neither loads it at
import.
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
    """The dtype of indices below `order`: the smallest unsigned dtype that
    holds order - 1, uint8, uint16, uint32, then intp.  A table of n
    elements is stored in index_dtype(n), and the flat positions of its
    cells are computed in index_dtype(n * n)."""
    if order <= 1 << 8:
        return np.uint8
    if order <= 1 << 16:
        return np.uint16
    if order <= 1 << 32:
        return np.uint32
    return np.intp


def gather(table, rows, cols):
    """table[rows, cols] for a 2-d table, with rows and cols broadcast.

    Each cell is taken by its row-major position, computed in
    `index_dtype` (the row length must fit too, which only a one-row
    table can break), and read with `take`: subscripting with a compact
    index array is slower than with an intp one, while `take` reads it
    directly, and a 2-d gather would first cast each index array to intp.
    Indices are in range, so casting them to the position dtype is exact."""
    ncols = table.shape[1]
    dtype = index_dtype(max(table.size, ncols + 1))
    pos = np.multiply(rows, ncols, dtype=dtype, casting="unsafe") + cols
    return table.ravel().take(pos)
