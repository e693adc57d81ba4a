"""scipy's compiled kernels, each loaded from its extension module alone.

`KERNELS` lists every compiled scipy routine the package calls, with the
extension that holds it and the public module to import instead on a scipy
layout without that extension.  Importing ``scipy.optimize`` or
``scipy.sparse`` costs tens of MB and a few hundred ms; an extension loads
alone in a few ms, and not even the top-level ``scipy`` package runs.
``_slsqplib`` maps scipy's own OpenBLAS, which starts its own thread pool
unless ``OPENBLAS_NUM_THREADS`` is set.
"""

import importlib
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

KERNELS = {
    # the Birkhoff LMO; scipy.optimize.linear_sum_assignment is this builtin
    "linear_sum_assignment": ("scipy.optimize._lsap", "scipy.optimize"),
    # the NNLS of Region._contains; scipy.optimize.nnls calls this builtin
    "nnls": ("scipy.optimize._slsqplib", "scipy.optimize"),
    # CsrMatrix: A @ x, A.T @ r and the rows of a sample batch
    "csr_matvec": ("scipy.sparse._sparsetools", "scipy.sparse._sparsetools"),
    "csc_matvec": ("scipy.sparse._sparsetools", "scipy.sparse._sparsetools"),
    "csr_row_index": ("scipy.sparse._sparsetools", "scipy.sparse._sparsetools"),
}
loaded = {}  # extension name -> the module its routines come from


def kernel(routine):
    """scipy's compiled ``routine``, a row of `KERNELS`.

    The first call of any routine of an extension loads that extension, once:
    its file is found in its package's directory by ``PathFinder`` (as
    ``importlib.util.find_spec`` would import the package) and executed
    alone, then taken out of ``sys.modules`` unless its package had imported
    it, so that a later import of the package loads it there as usual.
    Without scipy, on a layout without that file, or when the file lacks a
    routine `KERNELS` lists for it, the public module is imported instead.
    """
    name, public = KERNELS[routine]
    module = loaded.get(name)
    if module is None:
        scipy = find_spec("scipy")  # a top-level spec imports nothing
        if scipy is not None:
            package_dir = os.path.join(os.path.dirname(scipy.origin), *name.split(".")[1:-1])
            spec = PathFinder.find_spec(name, [package_dir])
            if spec is not None:
                imported = name in sys.modules  # by its package
                module = module_from_spec(spec)
                spec.loader.exec_module(module)
                if not imported:  # the loader may have registered it, which is the package's job
                    sys.modules.pop(name, None)
        if not all(hasattr(module, r) for r, (held_in, _) in KERNELS.items() if held_in == name):
            module = importlib.import_module(public)  # another scipy layout
        loaded[name] = module
    return getattr(module, routine)
