"""Differential tests for the O(N) PRH kernel and tree templates.

The scalar O(N^2) reference (:func:`repro.rctree.time_constants`) is the
ground truth; the O(N) list kernel must reproduce it to float accuracy
on every tree shape, and on every template an rca8 analysis compiles —
including when the structural-sharing layer
(:mod:`repro.core.timing.stage_iso`) answers isomorphic stages from
their representative's templates.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.vectors import Vector
from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.models import characterize_technology
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.errors import AnalysisError
from repro.netlist import Network
from repro.perf import PerfCounters
from repro.rctree import RCTree, TimeConstants, TreeTemplate, time_constants
from repro.tech import CMOS3
from repro.verify import ConformanceCase, check_kernel_invariant

RTOL = 1e-9


def assert_constants_close(got: TimeConstants, want: TimeConstants) -> None:
    for name in ("t_p", "t_d", "t_r"):
        a, b = getattr(got, name), getattr(want, name)
        assert math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-30), (
            f"{name}: kernel {a!r} != scalar {b!r}")


def check_tree(tree: RCTree) -> None:
    """Template constants == scalar reference at every node."""
    template = TreeTemplate.from_rctree(tree)
    for node in tree.nodes:
        assert_constants_close(template.constants_for(node),
                               time_constants(tree, node))


def random_tree(draw_edges) -> RCTree:
    tree = RCTree("src")
    nodes = ["src"]
    for i, (parent_index, r, c) in enumerate(draw_edges):
        parent = nodes[parent_index % len(nodes)]
        name = f"n{i}"
        tree.add_edge(parent, name, r)
        tree.add_cap(name, c)
        nodes.append(name)
    return tree


edge_strategy = st.lists(
    st.tuples(st.integers(0, 1000),
              st.floats(min_value=10.0, max_value=1e5),
              st.floats(min_value=1e-15, max_value=1e-11)),
    min_size=1, max_size=60)


class TestKernelVsScalar:
    @settings(max_examples=60, deadline=None)
    @given(edges=edge_strategy)
    def test_random_trees(self, edges):
        check_tree(random_tree(edges))

    def test_single_node(self):
        tree = RCTree("out")
        tree.add_cap("out", 3e-12)
        template = TreeTemplate.from_rctree(tree)
        k = template.constants_for("out")
        assert k.t_d == 0.0 and k.t_r == 0.0 and k.t_p == 0.0
        assert template.total_cap() == pytest.approx(3e-12)

    def test_deep_chain(self):
        check_tree(RCTree.chain([1e3] * 96, [1e-13] * 96))

    def test_star(self):
        tree = RCTree("hub")
        for i in range(96):
            tree.add_edge("hub", f"leaf{i}", 500.0 + i)
            tree.add_cap(f"leaf{i}", 1e-13 * (i + 1))
        check_tree(tree)

    def test_backends_agree_exactly_shaped(self):
        """Path resistance must match the scalar tree."""
        tree = random_tree([(0, 100.0, 1e-12), (1, 200.0, 2e-12),
                            (1, 300.0, 1e-12), (0, 400.0, 5e-13)])
        template = TreeTemplate.from_rctree(tree)
        for node in tree.non_root_nodes:
            assert template.path_resistance(node) == pytest.approx(
                tree.path_resistance(node), rel=RTOL)


class TestAnalyzerDifferential:
    @pytest.fixture(scope="class")
    def rca8(self):
        tech = characterize_technology(CMOS3)
        network = ripple_carry_adder(tech, 8)
        inputs = {name: 0.0 for name in adder_input_names(8)}
        return network, inputs

    def test_rca8_kernel_invariant(self, rca8):
        """``repro verify``'s kernel invariant, on rca8: every template
        the analysis compiles agrees with the O(N^2) reference."""
        network, inputs = rca8
        case = ConformanceCase(name="rca8", seed=0, family="adder",
                               network=network,
                               vectors=[Vector("v0", inputs)])
        perf = PerfCounters()
        assert check_kernel_invariant(case, perf) == []
        templates = TimingAnalyzer(network).analyze(inputs).perf.get(
            "tree_template_misses")
        assert perf.get("verify_invariant_checks") == templates > 0

    def test_kernel_counters_surface(self, rca8):
        network, inputs = rca8
        counters = TimingAnalyzer(network).analyze(inputs).perf.counters
        assert counters["tree_template_misses"] > 0
        assert counters["kernel_batches"] > 0
        assert counters["kernel_nodes"] >= counters["kernel_batches"]

    def test_disjoint_copies_cost_one_copy(self):
        """k disjoint copies of one cell under identical input timing ask
        the delay model exactly what one copy asks, compile templates
        for representative (first-copy) stages only, and give
        bit-identical arrivals at corresponding nodes."""
        cell = ripple_carry_adder(CMOS3, 2)
        inputs = {name: InputSpec(0.1e-9 * i, 0.2e-9 * i, 0.3e-9)
                  for i, name in enumerate(adder_input_names(2))}
        copies = Network(CMOS3, name="copies")
        maps = [copies.merge_from(cell, prefix=f"c{k}_") for k in range(3)]
        one = TimingAnalyzer(cell).analyze(inputs)
        analyzer = TimingAnalyzer(copies)
        many = analyzer.analyze({mapping[name]: spec for mapping in maps
                                 for name, spec in inputs.items()})

        for counter in ("model_evals", "tree_template_misses",
                        "path_enumerations"):
            assert many.perf.get(counter) == one.perf.get(counter), counter
        assert many.perf.get("model_evals") > 0
        stages = analyzer.graph.stages
        for key in analyzer._templates:
            assert all(node.startswith("c0_")
                       for node in stages[key[0]].internal_nodes), key
        assert len(many.arrivals) == 3 * len(one.arrivals)
        for event, want in one.arrivals.items():
            for mapping in maps:
                got = many.arrival(mapping[event.node], event.transition)
                assert (got.time, got.slope) == (want.time, want.slope)

    def test_invalidate_caches_drops_templates(self, rca8):
        network, inputs = rca8
        analyzer = TimingAnalyzer(network)
        analyzer.analyze(inputs)
        assert analyzer._templates
        analyzer.invalidate_caches()
        assert not analyzer._templates
        # And a re-run after invalidation still agrees with itself.
        again = analyzer.analyze(inputs)
        assert again.arrivals


class TestTimeConstantsSlack:
    def test_accepts_rounding_at_td_scale(self):
        # T_R a hair above T_D (within 1e-9 relative) must not raise:
        # the O(N) kernel's reassociated sums can land there.
        t_d = 1e-6
        TimeConstants(t_p=2e-6, t_d=t_d, t_r=t_d * (1 + 1e-10))

    def test_rejects_genuine_violation(self):
        with pytest.raises(AnalysisError):
            TimeConstants(t_p=1e-6, t_d=1e-6, t_r=2e-6)
