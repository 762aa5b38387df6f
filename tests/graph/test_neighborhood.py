"""Unit tests for neighbourhood extraction and zooming (Figure 3(a)/(b)).

The incremental :class:`NeighborhoodIndex` is pinned against a verbatim
reproduction of the seed (scratch) BFS: for random graphs × centers ×
radii, fragments, frontiers, distances and zoom deltas must be
identical — the index is an optimisation, not a semantics change.
"""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.generators import random_graph, scale_free_graph
from repro.graph.neighborhood import (
    NeighborhoodIndex,
    eccentricity_bound,
    extract_neighborhood,
    neighborhood_chain,
    zoom_out,
)
from repro.serving.workspace import default_workspace


def neighborhood_index(graph):
    """The process workspace's shared index of ``graph``."""
    return default_workspace().neighborhoods(graph)


# ----------------------------------------------------------------------
# the seed implementation, reproduced verbatim as the oracle
# ----------------------------------------------------------------------
def _scratch_extract(graph, center, radius):
    """Seed ``extract_neighborhood``: full BFS + eager subgraph + scan."""
    distances = {center: 0}
    frontier = {center}
    for step in range(1, radius + 1):
        next_frontier = set()
        for node in sorted(frontier, key=str):
            neighbors = set(graph.successors(node)) | graph.predecessors(node)
            for other in sorted(neighbors, key=str):
                if other not in distances:
                    distances[other] = step
                    next_frontier.add(other)
        frontier = next_frontier
        if not frontier:
            break
    fragment = graph.subgraph(distances)
    boundary = set()
    for node in fragment.nodes():
        outside_out = any(target not in distances for target in graph.successors(node))
        outside_in = any(source not in distances for source in graph.predecessors(node))
        if outside_out or outside_in:
            boundary.add(node)
    return distances, fragment, frozenset(boundary)


def _assert_matches_scratch(graph, neighborhood, *, graph_first=False):
    distances, fragment, boundary = _scratch_extract(graph, neighborhood.center, neighborhood.radius)
    assert neighborhood.has_frontier == bool(boundary)
    if graph_first:
        # materialising releases the base graph, so the frontier is computed first
        assert neighborhood.graph.structurally_equal(fragment)
    assert neighborhood.distances == distances
    assert neighborhood.nodes == frozenset(fragment.nodes())
    assert neighborhood.edges == frozenset(fragment.edges())
    assert neighborhood.frontier == boundary
    assert neighborhood.has_frontier == bool(neighborhood.frontier)
    assert neighborhood.graph.structurally_equal(fragment)


class TestIndexMatchesScratchOracle:
    def test_random_graphs_centers_radii(self):
        for seed in range(4):
            graph = random_graph(40, 120, ("a", "b", "c"), seed=seed)
            index = NeighborhoodIndex(graph)
            centers = sorted(graph.nodes(), key=str)[:: 13]
            for center in centers:
                # every fragment is read only once the BFS has been extended
                # for the largest radius, as a zoom ladder extends it
                fragments = [
                    (index.neighborhood(center, radius), graph_first)
                    for radius in (0, 1, 2, 4)
                    for graph_first in (False, True)
                ]
                for neighborhood, graph_first in fragments:
                    _assert_matches_scratch(graph, neighborhood, graph_first=graph_first)

    def test_zoom_delta_equals_scratch_delta(self):
        for seed in range(4):
            graph = scale_free_graph(45, edges_per_node=2, seed=seed)
            index = NeighborhoodIndex(graph)
            for center in sorted(graph.nodes(), key=str)[:: 17]:
                previous = index.neighborhood(center, 1)
                for step in (1, 2):
                    delta = index.zoom(previous, step=step)
                    _, prev_fragment, _ = _scratch_extract(graph, center, previous.radius)
                    _, cur_fragment, _ = _scratch_extract(graph, center, previous.radius + step)
                    assert delta.current.radius == previous.radius + step
                    assert delta.new_nodes == (
                        frozenset(cur_fragment.nodes()) - frozenset(prev_fragment.nodes())
                    )
                    assert delta.new_edges == (
                        frozenset(cur_fragment.edges()) - frozenset(prev_fragment.edges())
                    )
                    previous = delta.current

    def test_eccentricity_bound_consistency(self):
        for seed in range(3):
            graph = random_graph(30, 60, ("a", "b"), seed=seed)
            index = NeighborhoodIndex(graph)
            for center in sorted(graph.nodes(), key=str)[:: 11]:
                bound = index.eccentricity_bound(center)
                full = index.neighborhood(center, bound)
                bigger = index.neighborhood(center, bound + 1)
                assert full.nodes == bigger.nodes
                # at the bound nothing leaves the fragment any more
                assert not full.frontier
                if bound > 0:
                    smaller = index.neighborhood(center, bound - 1)
                    assert smaller.nodes < full.nodes


class TestIndexBehaviour:
    def test_shared_index_is_per_graph(self, figure1_graph):
        assert neighborhood_index(figure1_graph) is neighborhood_index(figure1_graph)

    def test_mutation_invalidates_states(self, figure1_graph):
        graph = figure1_graph.copy()
        index = neighborhood_index(graph)
        before = index.neighborhood("N2", 2)
        before_nodes = before.nodes  # materialise the snapshot
        graph.add_edge("N2", "tram", "C1")
        after = index.neighborhood("N2", 2)
        assert "C1" in after.nodes
        assert "C1" not in before_nodes

    def test_lazy_fragment_raises_after_mutation(self, figure1_graph):
        graph = figure1_graph.copy()
        neighborhood = extract_neighborhood(graph, "N2", 2)
        graph.add_edge("N2", "tram", "C1")
        with pytest.raises(RuntimeError):
            neighborhood.graph  # noqa: B018 - materialisation is the side effect

    def test_lazy_frontier_raises_after_mutation(self, figure1_graph):
        graph = figure1_graph.copy()
        neighborhood = extract_neighborhood(graph, "N2", 2)
        assert neighborhood.has_frontier  # fixed at extraction, so still readable
        graph.add_edge("N2", "tram", "C1")
        assert neighborhood.has_frontier
        with pytest.raises(RuntimeError):
            neighborhood.frontier  # noqa: B018 - computing the frontier is the side effect
        with pytest.raises(RuntimeError):
            neighborhood.edges  # noqa: B018 - the same contract

    def test_materialised_fragment_survives_mutation(self, figure1_graph):
        graph = figure1_graph.copy()
        _, _, boundary = _scratch_extract(graph, "N2", 2)
        neighborhood = extract_neighborhood(graph, "N2", 2)
        fragment = neighborhood.graph
        graph.add_edge("N2", "tram", "C1")
        assert "C1" not in fragment
        assert neighborhood.graph is fragment
        # the frontier was computed before the base graph was released
        assert neighborhood.frontier == boundary

    def test_unknown_center_raises(self, figure1_graph):
        index = NeighborhoodIndex(figure1_graph)
        with pytest.raises(NodeNotFoundError):
            index.neighborhood("ghost", 1)
        with pytest.raises(NodeNotFoundError):
            index.eccentricity_bound("ghost")

    def test_zoom_after_mutation_still_returns_a_delta(self, figure1_graph):
        """Regression: the stale-previous fallback must not raise."""
        graph = figure1_graph.copy()
        base = extract_neighborhood(graph, "N2", 1)
        graph.add_edge("N2", "tram", "C2")
        delta = zoom_out(graph, base)
        assert delta.current.radius == 2
        assert "C2" in delta.current.nodes
        assert ("N2", "tram", "C2") in delta.new_edges

    def test_zoom_from_materialised_fragment_falls_back_to_full_diff(self):
        """A fragment whose ``.graph`` was materialised has released its
        base graph, so zooming it takes the full-diff branch instead of
        the layer slice; that delta must still be the honest set
        difference."""
        graph = random_graph(30, 80, ("a", "b"), seed=3)
        index = NeighborhoodIndex(graph)
        for center in sorted(graph.nodes(), key=str)[:: 7]:
            base = index.neighborhood(center, 1)
            base.graph  # noqa: B018 - materialisation is the side effect
            assert base._source is None
            delta = index.zoom(base, step=1)
            _, prev_fragment, _ = _scratch_extract(graph, center, 1)
            _, cur_fragment, _ = _scratch_extract(graph, center, 2)
            assert delta.current.nodes == frozenset(cur_fragment.nodes())
            assert delta.new_nodes == (
                frozenset(cur_fragment.nodes()) - frozenset(prev_fragment.nodes())
            )
            assert delta.new_edges == (
                frozenset(cur_fragment.edges()) - frozenset(prev_fragment.edges())
            )

    def test_materialising_the_fragment_releases_the_base_graph(self):
        import weakref

        graph = random_graph(20, 40, seed=5)
        neighborhood = extract_neighborhood(graph, "n0", 2)
        fragment = neighborhood.graph  # materialise -> base reference dropped
        graph_ref = weakref.ref(graph)
        del graph
        assert graph_ref() is None
        assert neighborhood.contains("n0")
        assert fragment.node_count == len(neighborhood.nodes)
        assert neighborhood.edges == frozenset(fragment.edges())


class TestExtractNeighborhood:
    def test_radius_zero_is_just_the_center(self, figure1_graph):
        neighborhood = extract_neighborhood(figure1_graph, "N2", 0)
        assert set(neighborhood.graph.nodes()) == {"N2"}
        assert neighborhood.center == "N2"
        assert neighborhood.radius == 0

    def test_figure3a_radius_two_has_no_cinema(self, figure1_graph):
        """At distance 2 from N2 the user cannot see any cinema yet."""
        neighborhood = extract_neighborhood(figure1_graph, "N2", 2)
        assert "C1" not in neighborhood.graph
        assert "C2" not in neighborhood.graph
        assert "N1" in neighborhood.graph
        assert "N4" in neighborhood.graph

    def test_figure3b_radius_three_reveals_cinema(self, figure1_graph):
        neighborhood = extract_neighborhood(figure1_graph, "N2", 3)
        assert "C1" in neighborhood.graph
        assert "C2" in neighborhood.graph

    def test_distances_recorded(self, figure1_graph):
        neighborhood = extract_neighborhood(figure1_graph, "N2", 2)
        assert neighborhood.distances["N2"] == 0
        assert neighborhood.distances["N1"] == 1
        assert neighborhood.distances["N4"] == 2

    def test_frontier_marks_nodes_with_outside_edges(self, figure1_graph):
        neighborhood = extract_neighborhood(figure1_graph, "N2", 2)
        # N4 has the cinema edge leaving the fragment
        assert "N4" in neighborhood.frontier
        # N2's own edges are all inside
        assert "N2" not in neighborhood.frontier

    def test_induced_edges_only(self, figure1_graph):
        neighborhood = extract_neighborhood(figure1_graph, "N2", 1)
        for source, _, target in neighborhood.graph.edges():
            assert source in neighborhood.graph
            assert target in neighborhood.graph

    def test_negative_radius_raises(self, figure1_graph):
        with pytest.raises(ValueError):
            extract_neighborhood(figure1_graph, "N2", -1)

    def test_unknown_center_raises(self, figure1_graph):
        with pytest.raises(NodeNotFoundError):
            extract_neighborhood(figure1_graph, "ghost", 2)

    def test_contains_helper(self, figure1_graph):
        neighborhood = extract_neighborhood(figure1_graph, "N2", 1)
        assert neighborhood.contains("N1")
        assert not neighborhood.contains("C1")


class TestZoomOut:
    def test_zoom_reveals_new_elements(self, figure1_graph):
        base = extract_neighborhood(figure1_graph, "N2", 2)
        delta = zoom_out(figure1_graph, base)
        assert delta.current.radius == 3
        assert delta.grew
        assert "C1" in delta.new_nodes
        assert ("N4", "cinema", "C1") in delta.new_edges

    def test_zoom_preserves_old_elements(self, figure1_graph):
        base = extract_neighborhood(figure1_graph, "N2", 2)
        delta = zoom_out(figure1_graph, base)
        assert set(base.graph.nodes()) <= set(delta.current.graph.nodes())
        assert set(base.graph.edges()) <= set(delta.current.graph.edges())

    def test_zoom_beyond_graph_adds_nothing(self, figure1_graph):
        big = extract_neighborhood(figure1_graph, "N2", 10)
        delta = zoom_out(figure1_graph, big)
        assert not delta.grew

    def test_zoom_step_two(self, figure1_graph):
        base = extract_neighborhood(figure1_graph, "N2", 1)
        delta = zoom_out(figure1_graph, base, step=2)
        assert delta.current.radius == 3

    def test_invalid_step_raises(self, figure1_graph):
        base = extract_neighborhood(figure1_graph, "N2", 1)
        with pytest.raises(ValueError):
            zoom_out(figure1_graph, base, step=0)


class TestChainsAndBounds:
    def test_neighborhood_chain(self, figure1_graph):
        chain = neighborhood_chain(figure1_graph, "N2", (2, 3))
        assert [item.radius for item in chain] == [2, 3]
        assert all(item.center == "N2" for item in chain)

    def test_eccentricity_bound_covers_component(self, figure1_graph):
        bound = eccentricity_bound(figure1_graph, "N2")
        full = extract_neighborhood(figure1_graph, "N2", bound)
        bigger = extract_neighborhood(figure1_graph, "N2", bound + 1)
        assert set(full.graph.nodes()) == set(bigger.graph.nodes())

    def test_eccentricity_bound_chain(self, chain5):
        assert eccentricity_bound(chain5, "c0") == 5

    def test_eccentricity_isolated_node(self):
        from repro.graph.labeled_graph import LabeledGraph

        graph = LabeledGraph()
        graph.add_node("alone")
        assert eccentricity_bound(graph, "alone") == 0
