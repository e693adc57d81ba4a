"""scipy's compiled extension modules, loaded without the packages that hold them.

Importing ``scipy.optimize`` or ``scipy.sparse`` costs tens of MB and a few
hundred ms, while the kernels this package calls live in extension modules
that load by themselves in a few ms: the assignment solver in
``scipy.optimize._lsap``, the NNLS solver behind ``Region._contains`` in
``scipy.optimize._slsqplib`` and the CSR kernels in ``scipy.sparse._sparsetools``.
Not even the top-level ``scipy`` package is imported: its directory comes from
its import spec, which is found without running it.  ``_slsqplib`` maps scipy's
own OpenBLAS, which starts its own thread pool unless ``OPENBLAS_NUM_THREADS`` is set.
"""

import importlib
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec


def load_extension(name, public, *attrs):
    """A module that has ``attrs``: scipy's extension ``name`` loaded alone, else ``public``.

    The file of ``name`` (say ``scipy.sparse._sparsetools``) is looked up in
    its package's directory with ``PathFinder``, because
    ``importlib.util.find_spec`` of a submodule would import the parent
    package, and then executed by itself.  The loaded module is taken out of
    ``sys.modules`` again, unless its package had imported it before, so
    that a later import of its package loads it there and sets the package
    attribute as usual.  Without scipy, on a scipy
    layout without that file, or when the file lacks one of ``attrs``, the
    module ``public`` is imported the usual way, package and all.
    """
    scipy = find_spec("scipy")  # a top-level spec imports nothing
    module = None
    if scipy is not None:
        package = name.rpartition(".")[0].split(".")[1:]
        spec = PathFinder.find_spec(name, [os.path.join(os.path.dirname(scipy.origin), *package)])
        if spec is not None:
            imported = name in sys.modules  # by its package
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            if not imported:  # the loader may have registered it, which is the package's job
                sys.modules.pop(name, None)
    if not all(hasattr(module, attr) for attr in attrs):  # another scipy layout
        module = importlib.import_module(public)
    return module
