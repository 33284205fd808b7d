import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sprint_planner.global_planner import Tree
from sprint_planner.render import render_svg
from sprint_planner.world import Box, Scene, Sphere

SVG_NS = "{http://www.w3.org/2000/svg}"


def empty_scene():
    return Scene(name="empty", lower=np.zeros(2), upper=np.ones(2))


def parse(svg):
    return ET.fromstring(svg)


class TestRenderSvg:
    def test_empty_scene_with_path(self):
        path = np.array([[0.1, 0.1], [0.9, 0.9]])
        svg = render_svg(empty_scene(), path=path)
        root = parse(svg)
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 1
        # only the world border rectangle, no obstacle shapes
        assert len(root.findall(f"{SVG_NS}rect")) == 1
        assert len(root.findall(f"{SVG_NS}circle")) == 0

    def test_obstacles_rendered(self):
        scene = Scene(name="s", lower=np.zeros(2), upper=np.ones(2),
                      obstacles=(Box(np.array([0.1, 0.1]), np.array([0.2, 0.2])),
                                 Sphere(np.array([0.5, 0.5]), 0.1)))
        root = parse(render_svg(scene))
        assert len(root.findall(f"{SVG_NS}rect")) == 2  # border + box
        assert len(root.findall(f"{SVG_NS}circle")) == 1

    def test_sample_markers_and_legend_count(self):
        samples = [(np.array([0.2, 0.2]), True), (np.array([0.4, 0.4]), False),
                   (np.array([0.6, 0.6]), True)]
        svg = render_svg(empty_scene(), samples=samples, total_samples=3)
        root = parse(svg)
        circles = root.findall(f"{SVG_NS}circle")
        assert len(circles) == 3
        fills = {c.get("fill") for c in circles}
        assert len(fills) == 2  # free and colliding use distinct styles
        text = root.find(f"{SVG_NS}text")
        assert text is not None and "3" in text.text

    def test_tree_edges_rendered(self):
        ta, tb = Tree(np.array([0.1, 0.1])), Tree(np.array([0.9, 0.9]))
        ta.add(np.array([0.2, 0.2]), ta.add(np.array([0.2, 0.1]), 0))
        tb.add(np.array([0.8, 0.9]), 0)
        root = parse(render_svg(empty_scene(), trees=(ta, tb)))
        # one segment per non-root node, from its parent, tree by tree
        assert [p.get("points") for p in root.findall(f"{SVG_NS}polyline")] == [
            "84.000,516.000 138.000,516.000",
            "138.000,516.000 138.000,462.000",
            "516.000,84.000 462.000,84.000",
        ]

    def test_rejects_non_2d(self):
        scene = Scene(name="hi", lower=np.zeros(3), upper=np.ones(3))
        with pytest.raises(ValueError):
            render_svg(scene)

    def test_deterministic_output(self):
        path = np.array([[0.1, 0.1], [0.9, 0.9]])
        samples = [(np.array([0.3, 0.7]), True)]
        assert render_svg(empty_scene(), samples=samples, path=path) == \
            render_svg(empty_scene(), samples=samples, path=path)
