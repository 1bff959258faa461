"""The package's public names all resolve."""

from __future__ import annotations

import flowsilt


def test_every_public_name_resolves():
    missing = [name for name in flowsilt.__all__
               if not hasattr(flowsilt, name)]
    assert missing == []
    namespace: dict = {}
    exec("from flowsilt import *", namespace)
    assert set(flowsilt.__all__) <= set(namespace)
