import importlib
import pkgutil

import citetraj


def test_every_name_in_all_resolves():
    # A stale __all__ entry breaks `from citetraj.<module> import *`.
    checked, missing = [], []
    for info in pkgutil.iter_modules(citetraj.__path__):
        module = importlib.import_module(f"citetraj.{info.name}")
        if hasattr(module, "__all__"):
            checked.append(info.name)
            missing += [f"{info.name}.{name}" for name in module.__all__
                        if not hasattr(module, name)]
    assert {"wsb", "synthgen", "pipeline"} <= set(checked)
    assert missing == []
