import types

import fstchar


def test_public_names_are_not_submodules():
    # a submodule imported after a function of the same name rebinds the
    # package attribute, so `from fstchar import *` would bind the module
    modules = [name for name in fstchar.__all__
               if isinstance(getattr(fstchar, name), types.ModuleType)]
    assert modules == []
