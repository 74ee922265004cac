"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` in every loaded
    ``toricstab`` module that binds it, and returns the list each call's
    arguments are appended to."""

    def install(module, name):
        fn = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            owner = getattr(mod, "__name__", "").partition(".")[0]
            if owner == "toricstab" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install
