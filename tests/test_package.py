import cflab


def test_every_exported_name_resolves():
    missing = [name for name in cflab.__all__ if not hasattr(cflab, name)]
    assert missing == []
    assert len(set(cflab.__all__)) == len(cflab.__all__)
