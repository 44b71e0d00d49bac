"""Unit tests for rotation systems (repro.planar.rotation)."""

import networkx as nx
import pytest

from repro.planar import EmbeddingError, RotationSystem, embed
from repro.planar import generators as gen


def square_with_diagonal() -> RotationSystem:
    return embed(nx.Graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


class TestConstruction:
    def test_from_graph_roundtrip(self):
        g = gen.grid(4, 5)
        rot = RotationSystem.from_graph(g)
        assert nx.is_isomorphic(rot.to_graph(), g)
        assert set(rot.nodes) == set(g.nodes)

    def test_from_graph_rejects_nonplanar(self):
        with pytest.raises(EmbeddingError):
            RotationSystem.from_graph(nx.complete_graph(5))

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(EmbeddingError):
            RotationSystem({0: [1, 1], 1: [0]})

    def test_copy_is_independent(self):
        rot = square_with_diagonal()
        clone = rot.copy()
        clone.insert_edge(1, 3, after_u=0, after_v=0)
        assert not rot.has_edge(1, 3)
        assert clone.has_edge(1, 3)


class TestQueries:
    def test_positions_match_order(self):
        rot = square_with_diagonal()
        for v in rot.nodes:
            for i, u in enumerate(rot.neighbors_cw(v)):
                assert rot.position(v, u) == i

    def test_position_of_non_neighbor_raises(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.position(1, 3)

    def test_successor_and_predecessor_are_inverse(self):
        rot = square_with_diagonal()
        for v in rot.nodes:
            for u in rot.neighbors_cw(v):
                assert rot.predecessor_cw(v, rot.successor_cw(v, u)) == u

    def test_edges_enumerated_once(self):
        rot = square_with_diagonal()
        edges = list(rot.edges())
        assert len(edges) == 5
        assert len({frozenset(e) for e in edges}) == 5

    def test_num_edges(self):
        assert square_with_diagonal().num_edges() == 5


class TestFaces:
    def test_euler_formula_on_families(self):
        for name, g in gen.FAMILIES(3):
            rot = embed(g)
            n, m, f = len(g), g.number_of_edges(), rot.num_faces()
            assert n - m + f == 2, name

    def test_face_walk_closes(self):
        rot = square_with_diagonal()
        face = rot.traverse_face(0, 1)
        assert face[0] == 0
        assert len(face) >= 3

    def test_every_half_edge_in_exactly_one_face(self):
        rot = embed(gen.grid(3, 4))
        seen = {}
        for idx, walk in enumerate(rot.faces()):
            for he in zip(walk, walk[1:] + walk[:1]):
                assert he not in seen
                seen[he] = idx
        assert len(seen) == 2 * rot.num_edges()

    def test_tree_has_single_face(self):
        rot = embed(gen.random_tree(12, seed=1))
        assert rot.num_faces() == 1


class TestMutation:
    def test_insert_edge_valid(self):
        # 1-3 can be drawn outside the square: some slot pair keeps the
        # embedding planar and splits a face (faces go 3 -> 4).
        valid = 0
        base = square_with_diagonal()
        for ref_u in (None, 0, 2):
            for ref_v in (None, 0, 2):
                rot = base.copy()
                rot.insert_edge(1, 3, after_u=ref_u, after_v=ref_v)
                try:
                    rot.validate()
                except Exception:
                    continue
                assert rot.num_faces() == 4
                valid += 1
        assert valid > 0

    def test_insert_existing_edge_rejected(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.insert_edge(0, 1, after_u=None, after_v=None)

    def test_insert_self_loop_rejected(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.insert_edge(2, 2, after_u=None, after_v=None)

    def test_bad_insertion_fails_validation(self):
        # 0-2 and 1-3 both drawn inside the square must cross: inserting 1-3
        # into the faces on opposite sides of 0-2 merges two faces, which
        # the Euler check flags.
        rot = square_with_diagonal()
        merged = None
        for ref_u in (0, 2):
            for ref_v in (0, 2):
                attempt = rot.copy()
                attempt.insert_edge(1, 3, after_u=ref_u, after_v=ref_v)
                try:
                    attempt.validate()
                except EmbeddingError:
                    merged = attempt
        assert merged is not None

    def test_add_isolated_node(self):
        rot = square_with_diagonal()
        rot.add_isolated_node(9)
        assert rot.degree(9) == 0
        with pytest.raises(EmbeddingError):
            rot.add_isolated_node(9)


class TestLocalMutation:
    def _positions_consistent(self, rot):
        for v in rot.nodes:
            for i, u in enumerate(rot.neighbors_cw(v)):
                assert rot.position(v, u) == i

    def test_positions_follow_insert_and_delete(self):
        rot = embed(gen.grid(3, 3))
        rot.insert_edge(0, 4, after_u=rot.neighbors_cw(0)[0], after_v=None)
        self._positions_consistent(rot)
        rot.delete_edge(0, 1)
        self._positions_consistent(rot)

    def test_failed_insert_leaves_rotation_unchanged(self):
        rot = square_with_diagonal()
        before = {v: rot.neighbors_cw(v) for v in rot.nodes}
        with pytest.raises(EmbeddingError):
            rot.insert_edge(1, 3, after_u=0, after_v=1)  # 1 is not adjacent to 3
        assert {v: rot.neighbors_cw(v) for v in rot.nodes} == before
        self._positions_consistent(rot)

    def test_corner_none_is_the_corner_after_the_last_neighbor(self):
        rot = embed(gen.grid(3, 3))
        for ref_v in (None, *rot.neighbors_cw(8)):
            assert rot.corners_share_face(0, None, 8, ref_v) == rot.corners_share_face(
                0, rot.neighbors_cw(0)[-1], 8, ref_v
            )

    def test_corners_on_one_face_split_it(self):
        rot = square_with_diagonal()
        shared = [
            (ref_u, ref_v)
            for ref_u in rot.neighbors_cw(1)
            for ref_v in rot.neighbors_cw(3)
            if rot.corners_share_face(1, ref_u, 3, ref_v)
        ]
        assert len(shared) == 1  # only the outer face holds both 1 and 3
        rot.insert_edge(1, 3, after_u=shared[0][0], after_v=shared[0][1])
        rot.validate()
        assert rot.num_faces() == 4

    def test_isolated_node_has_one_corner(self):
        rot = square_with_diagonal()
        rot.add_isolated_node(9)
        assert all(rot.corners_share_face(9, None, 1, ref) for ref in rot.neighbors_cw(1))

    def test_non_neighbor_reference_rejected(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.corners_share_face(1, 3, 3, None)


class TestExport:
    def test_networkx_roundtrip_preserves_rotation(self):
        rot = embed(gen.delaunay(25, seed=2))
        back = RotationSystem.from_networkx_embedding(rot.to_networkx_embedding())
        for v in rot.nodes:
            nbrs = rot.neighbors_cw(v)
            other = back.neighbors_cw(v)
            assert set(nbrs) == set(other)
            if len(nbrs) > 2:
                # Same cyclic order (possibly rotated).
                i = other.index(nbrs[0])
                rotated = other[i:] + other[:i]
                assert rotated == nbrs
