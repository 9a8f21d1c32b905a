"""The package's public surface."""

import unramified


def test_every_name_in_all_resolves():
    missing = [name for name in unramified.__all__
               if not hasattr(unramified, name)]
    assert missing == []
