"""Count the windows that infer-mode ``forward`` calls predict."""
from __future__ import annotations

import sys

from evtdetect import network


def count_infer_windows(monkeypatch) -> list[int]:
    """Patch ``forward`` in every evtdetect module that holds it; the returned
    list collects the window count of every infer-mode call."""
    counted: list[int] = []
    original = network.forward

    def counting_forward(net, windows, train=False, rng=None, **kwargs):
        if not train:
            counted.append(len(windows))
        return original(net, windows, train=train, rng=rng, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "evtdetect" and getattr(module, "forward", None) is original:
            monkeypatch.setattr(module, "forward", counting_forward)
    return counted
