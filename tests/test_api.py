import taximeasure


def test_public_names_resolve_once():
    names = taximeasure.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(taximeasure, n)]
    assert not missing
