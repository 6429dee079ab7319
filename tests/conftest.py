import inspect
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def spy_run_cell(monkeypatch):
    """Record each call the prover makes to its _run_cell, which still runs,
    as a dict of the call's arguments by name; returns the list of calls."""
    from diskpack import prover

    calls = []
    run_cell = prover._run_cell
    signature = inspect.signature(run_cell)

    def spy(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(prover, "_run_cell", spy)
    return calls
