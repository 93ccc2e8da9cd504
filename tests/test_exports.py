"""Each module's ``__all__`` names exactly what it offers: every listed name
exists, and every public function or class the module defines is listed."""

import importlib
import inspect
import pkgutil

import pytest

import dmrate

MODULES = ["dmrate"] + sorted(f"dmrate.{info.name}" for info in pkgutil.iter_modules(dmrate.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(name)
    exported = set(mod.__all__)
    assert not sorted(n for n in exported if not hasattr(mod, n)), "stale names in __all__"
    defined = {
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name
    }
    assert sorted(defined - exported) == [], "public definitions missing from __all__"


def test_top_level_api():
    assert sorted(dmrate.__all__) == sorted(
        [
            "evaluate_point",
            "ChannelModel",
            "DetectorModel",
            "ProtocolParams",
            "KeyRateResult",
            "InfeasibleError",
            "__version__",
        ]
    )
