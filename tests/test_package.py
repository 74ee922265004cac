"""The package's public names."""

import toricstab

REMOVED = (
    "slope_of",
    "slope_upper_bound",
    "jump_to_lambda_vector",
    "jump_to_lambda_matrix",
    "candidate_slope",
)


def test_every_public_name_resolves_once():
    names = toricstab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(toricstab, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in toricstab.__all__
        assert not hasattr(toricstab, name)
