"""The benchmark's tracer wraps named package functions; each must still exist."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracer  # noqa: E402


def test_tracer_installs_and_uninstalls_every_site():
    sites = tracer._sites()
    before = [vars(owner)[attr] for owner, attr, _ in sites]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [vars(owner)[attr] for owner, attr, _ in sites]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is b for (owner, attr, _), b in zip(sites, before))
