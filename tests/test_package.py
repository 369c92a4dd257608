"""Package surface: every advertised export exists."""

import multipoles


def test_every_export_resolves():
    missing = [name for name in multipoles.__all__ if not hasattr(multipoles, name)]
    assert missing == []
    assert len(set(multipoles.__all__)) == len(multipoles.__all__)
