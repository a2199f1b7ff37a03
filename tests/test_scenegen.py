import hashlib
import itertools
import struct

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


class TestRectArea:
    @staticmethod
    def assert_area_is_numpy_cross_norm(u, v):
        want = float(np.linalg.norm(np.cross(u, v)))
        assert struct.pack("<d", Rect((0, 0, 0), u, v).area) == struct.pack("<d", want), (u, v)

    def test_random_edges_bit_for_bit(self):
        gen = RandomStream(11)
        scale = 10.0 ** gen.integers(-6, 7, size=(400, 2, 1))
        for u, v in gen.normal(size=(400, 2, 3)) * scale:
            self.assert_area_is_numpy_cross_norm(u, v)

    def test_signed_zero_edges_bit_for_bit(self):
        values = (0.0, -0.0, 1.0, -2.5)
        for u in itertools.product(values, repeat=3):
            for v in itertools.product(values, repeat=3):
                self.assert_area_is_numpy_cross_norm(np.array(u), np.array(v))


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


# sha256 of the positions (<f8) and labels (<i8) of each template at
# density 50 from RandomStream(0); a change to a face, the face order or the
# sampler's draws changes them
TEMPLATE_GOLDEN = {
    "empty_room": ("01096f1b49f1a8d7b01439b30bc33806b9b251cfc4e07fa7d101de43b194d1e7",
                   "cba436e95b48e7cc522475961deabb093e1c14fe008a44320768e71a6acd850c"),
    "one_occluder": ("bd998739b2b1dc73667be6e27470ea07c256e252f3324f2f5cc346641e13e187",
                     "896e92e4dbaac0b0aa0f011f3742503407e9ea547f2457dcd3b499ff45f3c531"),
    "cluttered": ("11dc8bcec4afbc163ba3cbcd397425ff7c2d6cc667a44bd5b08f96a78acd8d1d",
                  "6fb74d0562c4c03c9a38447f7b77d101947135ce6162b4b44eb3ecf4d063af42"),
    "long_corridor": ("a8c243cc44202d131396318604eab6a65fd1a83d3a3507d096b637f7dddcb90b",
                      "77d9908e3602fa8b0e314443265fb525fedc1edd9822956d876fe4f0a450fed9"),
    "tail_heavy": ("1234ccb1efd10da9464ea33ba568f238f5fc0f95f98062c6ce244ac370145dcf",
                   "e0373f5adfc39ef5d6bef74208468b80abc02f6219dfee2812741b54061af4e8"),
    "two_room": ("1fdfdf1cb73edfde541731572a4dda65e74002148fba6e630a7a1bc52e59200a",
                 "e9a45725532e18d08228e34f4c800cb10ee1a712d6c601d0fde201de62d94b54"),
}


@pytest.mark.parametrize("name", sorted(TEMPLATE_GOLDEN))
def test_template_bytes_are_golden(name):
    rng = RandomStream(0)
    cloud = generate_scene(make_template(name, rng, density=50.0), TOY_TAXONOMY, rng)
    got = tuple(
        hashlib.sha256(a.astype(dtype).tobytes()).hexdigest()
        for a, dtype in ((cloud.positions, "<f8"), (cloud.labels, "<i8"))
    )
    assert got == TEMPLATE_GOLDEN[name]


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

    def test_written_bytes(self, tmp_path):
        box = Aabb((0.5, 0.5, 0.0), (1.0, 1.0, 0.75))
        spec = SceneSpec(
            width=4, depth=3.5, height=2.5, furniture=((box, 4),),
            floor_class=np.int64(0), density=200.0,
        )
        save_scene_spec(spec, tmp_path / "s.cfg")
        assert (tmp_path / "s.cfg").read_text() == (
            "width=4\ndepth=3.5\nheight=2.5\ndensity=200.0\n"
            "floor_class=0\nceiling_class=1\nwall_class=2\n"
            "box=0.5,0.5,0.0,1.0,1.0,0.75,4\n"
        )

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

    # each added line must be rejected with its own line number (7)
    @pytest.mark.parametrize(
        "line",
        [
            "colour=7",          # unknown key
            "Width=4.0",         # keys are case-sensitive
            "width=5.0",         # duplicate key
            "density=50.0",      # duplicate key, same value
            "floor_class=1.5",   # fractional class id
            "wall_class=2.0",
            "ceiling_class=1e0",
        ],
    )
    def test_silent_spec_input_rejected(self, tmp_path, line):
        (tmp_path / "s.cfg").write_text(GOOD_SPEC + line + "\n")
        with pytest.raises(ParseError) as err:
            load_scene_spec(tmp_path / "s.cfg")
        assert err.value.path == str(tmp_path / "s.cfg")
        assert err.value.line == 7

    def test_class_ids_load_as_ints(self, tmp_path):
        text = GOOD_SPEC + "floor_class=3\nceiling_class=4\nwall_class=5\n"
        (tmp_path / "s.cfg").write_text(text)
        spec = load_scene_spec(tmp_path / "s.cfg")
        assert (spec.floor_class, spec.ceiling_class, spec.wall_class) == (3, 4, 5)
        assert all(type(c) is int for c in (spec.floor_class, spec.ceiling_class, spec.wall_class))

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
