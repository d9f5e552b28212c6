"""The package's public surface."""

import pytest

import hodgekit


def test_every_exported_name_resolves():
    assert len(set(hodgekit.__all__)) == len(hodgekit.__all__)
    for name in hodgekit.__all__:
        assert getattr(hodgekit, name) is not None


@pytest.mark.parametrize("name", ["TracePolynomial", "betti", "euler", "tate_twist",
                                  "BlowupPlan", "CenterLabel", "h_one_top",
                                  "h_top_minus", "euler_check", "MismatchReport",
                                  "h2_cover", "shift_by", "NegativeIndex",
                                  "blowup_assemble", "DimensionMismatch",
                                  "projector_invariant_dims", "labeled_basis",
                                  "apply_element", "element_trace",
                                  "signed_cycle_type"])
def test_removed_name_not_exported(name):
    assert name not in hodgekit.__all__
    assert not hasattr(hodgekit, name)
