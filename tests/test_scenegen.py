import numpy as np
import pytest
from scipy.stats import chi2

from scanmix import (
    Aabb,
    RandomStream,
    Rect,
    SceneSpec,
    TOY_TAXONOMY,
    generate_scene,
    load_scene_spec,
    make_template,
    sample_primitive_surface,
    save_scene_spec,
    template_names,
)
from scanmix.errors import OverlapError, ParseError


class TestSurfaceSampling:
    def test_zero_area_face(self, rng):
        face = Rect((0, 0, 0), (0, 0, 0), (1, 0, 0))
        assert len(sample_primitive_surface(face, 100.0, rng)) == 0

    def test_unit_face_at_1250(self):
        face = Rect((0, 0, 0), (1, 0, 0), (0, 1, 0))
        for seed in range(5):
            pts = sample_primitive_surface(face, 1250.0, RandomStream(seed))
            assert abs(len(pts) - 1250) <= 1

    def test_points_on_face(self, rng):
        face = Rect((1, 2, 3), (2, 0, 0), (0, 0, 1.5))
        pts = sample_primitive_surface(face, 500.0, rng)
        assert np.all(pts[:, 1] == 2.0)
        assert np.all((pts[:, 0] >= 1) & (pts[:, 0] <= 3))
        assert np.all((pts[:, 2] >= 3) & (pts[:, 2] <= 4.5))

    def test_uniformity_chi_square(self):
        # 2x3 m face, density 100, 6-cell grid; counts pooled over 10 seeds
        face = Rect((0, 0, 0), (2, 0, 0), (0, 3, 0))
        counts = np.zeros(6)
        total = 0
        for seed in range(10):
            pts = sample_primitive_surface(face, 100.0, RandomStream(seed))
            ix = np.clip((pts[:, 0]).astype(int), 0, 1)
            iy = np.clip((pts[:, 1]).astype(int), 0, 2)
            np.add.at(counts, ix * 3 + iy, 1)
            total += len(pts)
        expected = total / 6
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.99, df=5)


class TestGenerateScene:
    def test_structural_total_count(self):
        # 2x2x2 room, density 100: floor+ceiling 2*4 m^2, walls 4*4 m^2
        spec = SceneSpec(width=2, depth=2, height=2, density=100.0)
        for seed in range(3):
            cloud = generate_scene(spec, TOY_TAXONOMY, RandomStream(seed))
            assert abs(cloud.n - 2400) <= 6
            assert set(np.unique(cloud.labels)) == {0, 1, 2}

    def test_box_points_on_box_boundary(self, rng):
        box = Aabb((0.5, 0.5, 0.0), (1.5, 1.5, 1.0))
        spec = SceneSpec(width=3, depth=3, height=2, furniture=((box, 3),), density=200.0)
        cloud = generate_scene(spec, TOY_TAXONOMY, rng)
        pts = cloud.positions[cloud.labels == 3]
        # distance to the box surface: on at least one axis the point sits
        # on a face while staying inside the box on the others
        inside_lo = pts - box.min
        inside_hi = box.max - pts
        face_dist = np.minimum(np.abs(inside_lo), np.abs(inside_hi)).min(axis=1)
        assert (inside_lo >= -1e-9).all() and (inside_hi >= -1e-9).all()
        assert face_dist.max() <= 1e-9

    def test_structural_points_on_room_surfaces(self, rng):
        spec = SceneSpec(width=4, depth=3, height=2.5, density=150.0)
        cloud = generate_scene(spec, TOY_TAXONOMY, rng)
        floor = cloud.positions[cloud.labels == 0]
        ceil = cloud.positions[cloud.labels == 1]
        wall = cloud.positions[cloud.labels == 2]
        assert np.abs(floor[:, 2]).max() <= 1e-9
        assert np.abs(ceil[:, 2] - 2.5).max() <= 1e-9
        on_wall = (
            (np.abs(wall[:, 0]) <= 1e-9)
            | (np.abs(wall[:, 0] - 4) <= 1e-9)
            | (np.abs(wall[:, 1]) <= 1e-9)
            | (np.abs(wall[:, 1] - 3) <= 1e-9)
        )
        assert on_wall.all()

    def test_deterministic(self):
        spec = SceneSpec(width=3, depth=3, height=2.5, density=120.0)
        a = generate_scene(spec, TOY_TAXONOMY, RandomStream(5))
        b = generate_scene(spec, TOY_TAXONOMY, RandomStream(5))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.labels, b.labels)

    def test_overlapping_furniture_rejected(self, rng):
        b1 = Aabb((0.5, 0.5, 0.0), (1.5, 1.5, 1.0))
        b2 = Aabb((1.0, 1.0, 0.0), (2.0, 2.0, 1.0))
        spec = SceneSpec(width=3, depth=3, height=2, furniture=((b1, 3), (b2, 4)), density=50.0)
        with pytest.raises(OverlapError):
            generate_scene(spec, TOY_TAXONOMY, rng)

    def test_touching_furniture_allowed(self, rng):
        b1 = Aabb((0.5, 0.5, 0.0), (1.0, 1.0, 1.0))
        b2 = Aabb((1.0, 0.5, 0.0), (1.5, 1.0, 1.0))
        spec = SceneSpec(width=3, depth=3, height=2, furniture=((b1, 3), (b2, 4)), density=50.0)
        generate_scene(spec, TOY_TAXONOMY, rng)

    def test_box_outside_room_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(width=2, depth=2, height=2, furniture=((Aabb((1, 1, 0), (3, 1.5, 1)), 3),))

    def test_class_histogram_matches_areas(self):
        spec = SceneSpec(width=4, depth=4, height=2.5, density=200.0)
        cloud = generate_scene(spec, TOY_TAXONOMY, RandomStream(2))
        areas = {0: 16.0, 1: 16.0, 2: 4 * 4 * 2.5}
        total_area = sum(areas.values())
        for cls, area in areas.items():
            n = np.count_nonzero(cloud.labels == cls)
            expect = cloud.n * area / total_area
            sigma = np.sqrt(cloud.n * (area / total_area) * (1 - area / total_area))
            assert abs(n - expect) <= 3 * sigma + 3


class TestTemplatesAndSpecIo:
    def test_all_templates_generate(self):
        for i, name in enumerate(template_names()):
            spec = make_template(name, RandomStream(i), density=40.0)
            cloud = generate_scene(spec, TOY_TAXONOMY, RandomStream(i))
            assert cloud.n > 500

    def test_unknown_template(self, rng):
        with pytest.raises(ValueError):
            make_template("nope", rng)

    def test_spec_round_trip(self, tmp_path, rng):
        spec = make_template("cluttered", rng, density=77.0)
        save_scene_spec(spec, tmp_path / "s.cfg")
        back = load_scene_spec(tmp_path / "s.cfg")
        assert back.width == spec.width and back.depth == spec.depth
        assert back.density == spec.density
        assert len(back.furniture) == len(spec.furniture)
        for (b1, c1), (b2, c2) in zip(back.furniture, spec.furniture):
            assert c1 == c2
            assert np.array_equal(b1.min, b2.min) and np.array_equal(b1.max, b2.max)

    # line 4 of GOOD_SPEC replaced by a bad one; each must name that line
    @pytest.mark.parametrize(
        "line",
        [
            "width=abc",
            "density=",
            "box=0.5,0.5,zero,1.0,1.0,0.8,3",
            "box=0.5,0.5,0.0,1.0,1.0,0.8,chair",
            "box=1.0,1.0,0.0,0.5,0.5,0.8,3",
            "box=0.5,0.5,0.0,1.0,1.0",
        ],
    )
    def test_bad_spec_line_raises_parse_error(self, tmp_path, line):
        lines = GOOD_SPEC.splitlines()
        lines[3] = line
        (tmp_path / "s.cfg").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_scene_spec(tmp_path / "s.cfg")
        assert err.value.path == str(tmp_path / "s.cfg")
        assert err.value.line == 4

    @pytest.mark.parametrize("line", ["width=nan", "height=inf", "depth=-1", "floor_class=inf"])
    def test_bad_spec_value_raises_parse_error(self, tmp_path, line):
        key = line.split("=")[0]
        lines = [ln for ln in GOOD_SPEC.splitlines() if not ln.startswith(key + "=")]
        (tmp_path / "s.cfg").write_text("\n".join(lines + [line]) + "\n")
        with pytest.raises(ParseError) as err:
            load_scene_spec(tmp_path / "s.cfg")
        assert err.value.path == str(tmp_path / "s.cfg")

    def test_good_spec_loads(self, tmp_path):
        (tmp_path / "s.cfg").write_text(GOOD_SPEC)
        spec = load_scene_spec(tmp_path / "s.cfg")
        assert (spec.width, spec.depth, spec.height, spec.density) == (4.0, 3.0, 2.5, 50.0)
        assert [cls for _, cls in spec.furniture] == [3, 4]


GOOD_SPEC = """\
width=4.0
depth=3.0
height=2.5
density=50.0
box=0.5,0.5,0.0,1.0,1.0,0.8,3
box=2.0,2.0,0.0,2.5,2.5,0.9,4
"""
