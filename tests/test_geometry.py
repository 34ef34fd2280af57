import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capvertex.errors import ConsistencyError, DomainError
from capvertex.geometry import (
    PlaneSupport,
    QTag,
    TrihedralConfig,
    TrihedralKind,
    WedgeConfig,
    classify_data,
    classify_grid,
    vertex_angle,
)


def test_plane_support_basics():
    p = PlaneSupport(normal=(0.0, 0.0, 1.0), offset=2.0, gamma=np.pi / 3)
    assert p.signed_distance((0.0, 0.0, 5.0)) == pytest.approx(3.0)
    assert p.beta == pytest.approx(np.cos(np.pi / 3))


def test_plane_support_rejects_non_unit_normal():
    with pytest.raises(DomainError):
        PlaneSupport(normal=(0.0, 0.0, 2.0), offset=0.0, gamma=1.0)


def test_canonical_wedge_frame():
    w = WedgeConfig.canonical(np.pi / 4, 1.0, 2.0)
    n1, n2 = w.plane1.normal, w.plane2.normal
    # inward normals of a right-angle wedge meet at pi - 2*alpha
    assert np.dot(n1, n2) == pytest.approx(np.cos(np.pi - np.pi / 2))
    assert np.allclose(w.edge_dir, (0.0, 0.0, 1.0))
    assert w.gammas == (1.0, 2.0)


def test_orthant_and_cylinder_configs():
    tri = TrihedralConfig.orthant((1.0, 1.1, 1.2))
    assert tri.kind is TrihedralKind.APEX
    assert np.allclose(tri.apex, 0.0)
    assert tri.wedge_alpha(0, 1) == pytest.approx(np.pi / 4)

    cyl = TrihedralConfig.regular_cylinder(1.0, (1.9, 1.9, 1.9))
    assert cyl.kind is TrihedralKind.CYLINDER
    # equilateral cross-section: pairwise wall opening 2*alpha = pi/3
    assert cyl.wedge_alpha(0, 1) == pytest.approx(np.pi / 6)
    for p in cyl.planes:
        assert p.signed_distance((0.0, 0.0, 0.0)) == pytest.approx(1.0)


# -- classification --------------------------------------------------------


@pytest.mark.parametrize("alpha,g1,g2,tag", [
    (np.pi / 4, np.pi / 2, np.pi / 2, QTag.INTERIOR_Q),
    (np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3, QTag.INTERIOR_Q),
    (np.pi / 6, np.pi / 2, np.pi / 2, QTag.INTERIOR_Q),
    (np.pi / 4, np.pi, np.pi / 2, QTag.CORNER),
    (np.pi / 6, np.pi, np.pi, QTag.D1),
    (np.pi / 3, 0.2, np.pi - 0.2, QTag.D2),
])
def test_classification_examples(alpha, g1, g2, tag):
    assert classify_data(alpha, g1, g2).tag is tag


def test_boundary_tags():
    alpha = np.pi / 4
    # sum band tight, difference band slack
    g1 = g2 = (np.pi + 2 * alpha) / 2
    assert classify_data(alpha, g1, g2).tag is QTag.BOUNDARY_Q_D1
    # difference band tight, sum band slack
    d = np.pi - 2 * alpha
    g1, g2 = np.pi / 2 + d / 2, np.pi / 2 - d / 2
    assert classify_data(alpha, g1, g2).tag is QTag.BOUNDARY_Q_D2


def test_classify_rejects_out_of_range():
    with pytest.raises(DomainError):
        classify_data(np.pi / 4, -0.1, 1.0)
    with pytest.raises(DomainError):
        classify_data(1.6, 1.0, 1.0)


def test_numerator_positive_interior_negative_outside():
    assert classify_grid(np.pi / 4, np.pi / 2, np.pi / 2)[1] > 0
    assert classify_grid(np.pi / 6, np.pi, np.pi)[1] < 0
    # closed-wall limit gamma = 0 on both: numerator = -(1+cos 2a)^2 + sin^2 2a
    alpha = np.pi / 3
    n = classify_grid(alpha, 0.0, 0.0)[1]
    expected = np.sin(2 * alpha) ** 2 - (2 + 2 * np.cos(2 * alpha))
    assert n == pytest.approx(expected, abs=1e-12)


def test_classify_grid_shapes_and_determinism():
    g = np.linspace(0, np.pi, 61)
    g1, g2 = np.meshgrid(g, g, indexing="ij")
    codes_a, numer_a = classify_grid(np.pi / 4, g1, g2)
    codes_b, numer_b = classify_grid(np.pi / 4, g1, g2)
    assert codes_a.shape == (61, 61)
    assert np.array_equal(codes_a, codes_b)
    assert np.array_equal(numer_a, numer_b)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(0.05, np.pi / 2 - 0.05),
    g1=st.floats(0.0, np.pi),
    g2=st.floats(0.0, np.pi),
)
def test_classification_symmetric_in_angles(alpha, g1, g2):
    a = classify_data(alpha, g1, g2)
    b = classify_data(alpha, g2, g1)
    assert a.tag is b.tag
    assert a.numerator == pytest.approx(b.numerator, abs=1e-13)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(0.05, np.pi / 2 - 0.05),
    g1=st.floats(0.0, np.pi),
    g2=st.floats(0.0, np.pi),
)
def test_both_exclusion_bands_never_violated_together(alpha, g1, g2):
    s = abs(g1 + g2 - np.pi) - 2 * alpha
    d = abs(g1 - g2) - (np.pi - 2 * alpha)
    # |s| + |d| <= pi constrains the two violations to be mutually exclusive
    assert not (s > 1e-9 and d > 1e-9)


# -- vertex angles ---------------------------------------------------------


def test_vertex_angle_right_wedge_orthogonal_data():
    # both contact lines are great-circle tangents meeting at arccos(1/3)
    va = vertex_angle(np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 3)
    assert va.cos_two_beta == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert va.two_beta == pytest.approx(np.arccos(1.0 / 3.0), abs=1e-14)


def test_vertex_angle_symmetric_wedge_pi_over_2_data():
    va = vertex_angle(np.pi / 4, np.pi / 2, np.pi / 2)
    assert va.cos_two_beta == pytest.approx(np.cos(np.pi / 2), abs=1e-14)
    assert va.two_beta == pytest.approx(np.pi / 2, abs=1e-14)


def test_vertex_angle_requires_interior_data():
    with pytest.raises(DomainError):
        vertex_angle(np.pi / 6, np.pi, np.pi)
    with pytest.raises(DomainError):
        vertex_angle(np.pi / 4, np.pi, np.pi / 2)


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(0.05, np.pi / 2 - 0.05),
    g1=st.floats(0.01, np.pi - 0.01),
    g2=st.floats(0.01, np.pi - 0.01),
)
def test_vertex_angle_identity_and_range(alpha, g1, g2):
    if classify_data(alpha, g1, g2).tag is not QTag.INTERIOR_Q:
        return
    va = vertex_angle(alpha, g1, g2)
    assert 0.0 < va.two_beta < np.pi
    assert abs(va.sin_sq_two_beta - (1.0 - va.cos_two_beta ** 2)) < 1e-12
    assert va.sin_sq_two_beta > 0.0


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(0.05, np.pi / 2 - 0.05),
    g=st.floats(0.01, np.pi - 0.01),
)
def test_equal_angle_vertex_opening_bounded_by_wedge(alpha, g):
    if classify_data(alpha, g, g).tag is not QTag.INTERIOR_Q:
        return
    va = vertex_angle(alpha, g, g)
    assert va.two_beta <= 2 * alpha + 1e-12


@pytest.mark.parametrize("angles", [
    (np.nan, 1.0, 2.0), (0.5, np.nan, 2.0), (0.5, 1.0, np.inf),
    (np.array([0.5, np.nan]), 1.0, 2.0),
])
def test_non_finite_angles_are_rejected(angles):
    with pytest.raises(DomainError):
        classify_grid(*angles)


def test_plane_support_rejects_non_finite_offset():
    with pytest.raises(DomainError):
        PlaneSupport(normal=(0.0, 0.0, 1.0), offset=np.nan, gamma=1.0)
