"""Modules bound at once and executed on first use, and the rules of index tables.

`load_on_first_use` puts a module object into `sys.modules` at once and
runs the module's code when an attribute of it is first read.  The
package registers its six submodules this way, and `monoids` and
`lattices` share one numpy bound this way: word-level work (embedding,
derivation search, deduction-only verdicts) never touches a table, so it
runs neither numpy nor any submodule it does not read.  The index tables of
both modules follow the rules below: `index_dtype` for how they are stored,
`position_dtype` for the flat positions of their cells, and `gather` for
how they are read; each reads numpy only when it is called, so none loads
it at import.
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


def position_dtype(size: int):
    """The dtype of a flat position below `size` in a table: the smallest
    unsigned dtype that holds size - 1, uint8, uint16, uint32, then intp.

    `index_dtype` cannot serve here, as it turns signed (int32) past 65 536
    while positions in a table of that many elements need 32 unsigned bits."""
    if size <= 1 << 8:
        return np.uint8
    if size <= 1 << 16:
        return np.uint16
    if size <= 1 << 32:
        return np.uint32
    return np.intp


def gather(table, rows, cols):
    """table[rows, cols] for a 2-d table, with rows and cols broadcast.

    Each cell is taken by its row-major position, computed in
    `position_dtype` (the row length must fit too, which only a one-row
    table can break), and read with `take`: subscripting with a compact
    index array is slower than with an intp one, while `take` reads it
    directly, and a 2-d gather would first cast each index array to intp.
    Indices are in range, so casting them to the position dtype is exact."""
    ncols = table.shape[1]
    dtype = position_dtype(max(table.size, ncols + 1))
    pos = np.multiply(rows, ncols, dtype=dtype, casting="unsafe") + cols
    return table.ravel().take(pos)
