"""scipy's compiled extension modules, loaded without the packages that hold them.

Importing ``scipy.optimize`` or ``scipy.sparse`` costs tens of MB and a few
hundred ms, while the kernels this package calls live in extension modules
that load by themselves in a few ms: the assignment solver in
``scipy.optimize._lsap`` and the CSR kernels in ``scipy.sparse._sparsetools``.
"""

import importlib
import os
from importlib.machinery import PathFinder
from importlib.util import module_from_spec


def load_extension(name, public, *attrs):
    """A module that has ``attrs``: scipy's extension ``name`` loaded alone, else ``public``.

    The file of ``name`` (say ``scipy.sparse._sparsetools``) is looked up in
    its package's directory with ``PathFinder``, because
    ``importlib.util.find_spec`` would import the parent package, and then
    executed by itself.  On a scipy layout without that file, or whose file
    lacks one of ``attrs``, the module ``public`` is imported the usual way,
    package and all.
    """
    import scipy

    package = name.rpartition(".")[0].split(".")[1:]
    spec = PathFinder.find_spec(name, [os.path.join(os.path.dirname(scipy.__file__), *package)])
    module = None
    if spec is not None:
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    if not all(hasattr(module, attr) for attr in attrs):  # another scipy layout
        module = importlib.import_module(public)
    return module
