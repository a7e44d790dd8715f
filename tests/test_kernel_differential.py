"""Differential tests for the vectorized PRH kernel and tree templates.

The scalar O(N^2) reference (:func:`repro.rctree.time_constants`) is the
ground truth; the vectorized kernel's two backends (level-swept numpy,
O(N) plain Python) must reproduce it to float accuracy on every tree
shape, and the analyzer's ``kernel="numpy"`` path must produce the same
arrivals as ``kernel="python"`` end to end — including when the
structural-sharing layer (:mod:`repro.core.timing.stage_iso`) answers
isomorphic stages from their representative's templates.
"""

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.models import characterize_technology
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.errors import AnalysisError
from repro.netlist import Network
from repro.rctree import RCTree, TimeConstants, TreeTemplate, time_constants
from repro.rctree.kernel import set_forced_backend
from repro.tech import CMOS3

RTOL = 1e-9


@pytest.fixture
def forced_backend():
    """Yield a setter and always restore auto dispatch afterwards."""
    try:
        yield set_forced_backend
    finally:
        set_forced_backend(None)


def assert_constants_close(got: TimeConstants, want: TimeConstants) -> None:
    for name in ("t_p", "t_d", "t_r"):
        a, b = getattr(got, name), getattr(want, name)
        assert math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-30), (
            f"{name}: kernel {a!r} != scalar {b!r}")


def check_tree_both_backends(tree: RCTree, backend_setter) -> None:
    """Template constants == scalar reference, on both kernel backends."""
    for backend in ("python", "numpy"):
        backend_setter(backend)
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
    # The fixture only restores auto dispatch on exit; the checker
    # itself sets the backend fresh for every example, so reuse across
    # generated inputs is intended.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edges=edge_strategy)
    def test_random_trees(self, forced_backend, edges):
        check_tree_both_backends(random_tree(edges), forced_backend)

    def test_single_node(self, forced_backend):
        tree = RCTree("out")
        tree.add_cap("out", 3e-12)
        for backend in ("python", "numpy"):
            forced_backend(backend)
            template = TreeTemplate.from_rctree(tree)
            k = template.constants_for("out")
            assert k.t_d == 0.0 and k.t_r == 0.0 and k.t_p == 0.0
            assert template.total_cap() == pytest.approx(3e-12)

    def test_deep_chain(self, forced_backend):
        # Deeper than SMALL_TREE_CUTOFF so auto dispatch would go numpy;
        # force both anyway.
        tree = RCTree.chain([1e3] * 96, [1e-13] * 96)
        check_tree_both_backends(tree, forced_backend)

    def test_star(self, forced_backend):
        tree = RCTree("hub")
        for i in range(96):
            tree.add_edge("hub", f"leaf{i}", 500.0 + i)
            tree.add_cap(f"leaf{i}", 1e-13 * (i + 1))
        check_tree_both_backends(tree, forced_backend)

    def test_backends_agree_exactly_shaped(self, forced_backend):
        """Path resistance must match the scalar tree on both backends."""
        tree = random_tree([(0, 100.0, 1e-12), (1, 200.0, 2e-12),
                            (1, 300.0, 1e-12), (0, 400.0, 5e-13)])
        for backend in ("python", "numpy"):
            forced_backend(backend)
            template = TreeTemplate.from_rctree(tree)
            for node in tree.non_root_nodes:
                assert template.path_resistance(node) == pytest.approx(
                    tree.path_resistance(node), rel=RTOL)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_forced_backend("fortran")


class TestTemplatePickling:
    def test_roundtrip_preserves_constants(self):
        tree = RCTree.chain([1e3, 2e3, 3e3], [1e-12, 2e-12, 3e-12])
        template = TreeTemplate.from_rctree(tree)
        want = template.constants_for(tree.leaf())  # populate the memo
        clone = pickle.loads(pickle.dumps(template))
        assert clone.names == template.names
        assert clone.parent == template.parent
        assert_constants_close(clone.constants_for(tree.leaf()), want)


class TestAnalyzerDifferential:
    @pytest.fixture(scope="class")
    def rca8(self):
        tech = characterize_technology(CMOS3)
        network = ripple_carry_adder(tech, 8)
        inputs = {name: 0.0 for name in adder_input_names(8)}
        return network, inputs

    def test_rca8_numpy_matches_python(self, rca8):
        network, inputs = rca8
        results = {kern: TimingAnalyzer(network, kernel=kern).analyze(inputs)
                   for kern in ("numpy", "python")}
        numpy_arrivals = results["numpy"].arrivals
        python_arrivals = results["python"].arrivals
        assert set(numpy_arrivals) == set(python_arrivals)
        for node, arrival in numpy_arrivals.items():
            reference = python_arrivals[node]
            assert math.isclose(arrival.time, reference.time,
                                rel_tol=RTOL, abs_tol=1e-15), node
            assert math.isclose(arrival.slope, reference.slope,
                                rel_tol=RTOL, abs_tol=1e-15), node

    def test_numpy_path_builds_no_dict_trees(self, rca8):
        network, inputs = rca8
        analyzer = TimingAnalyzer(network, kernel="numpy")
        result = analyzer.analyze(inputs)
        counters = result.perf.counters
        assert counters.get("tree_builds", 0) == 0
        assert counters["tree_template_misses"] > 0
        assert counters["kernel_batches"] > 0
        assert counters["kernel_nodes"] >= counters["kernel_batches"]

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_disjoint_copies_cost_one_copy(self, kernel):
        """k disjoint copies of one cell under identical input timing ask
        the delay model exactly what one copy asks, compile templates
        for representative (first-copy) stages only, and give
        bit-identical arrivals at corresponding nodes."""
        cell = ripple_carry_adder(CMOS3, 2)
        inputs = {name: InputSpec(0.1e-9 * i, 0.2e-9 * i, 0.3e-9)
                  for i, name in enumerate(adder_input_names(2))}
        copies = Network(CMOS3, name="copies")
        maps = [copies.merge_from(cell, prefix=f"c{k}_") for k in range(3)]
        one = TimingAnalyzer(cell, kernel=kernel).analyze(inputs)
        analyzer = TimingAnalyzer(copies, kernel=kernel)
        many = analyzer.analyze({mapping[name]: spec for mapping in maps
                                 for name, spec in inputs.items()})

        for counter in ("model_evals", "tree_template_misses",
                        "tree_builds", "path_enumerations"):
            assert many.perf.get(counter) == one.perf.get(counter), counter
        assert many.perf.get("model_evals") > 0
        stages = analyzer.graph.stages
        for key in analyzer.export_templates():
            assert all(node.startswith("c0_")
                       for node in stages[key[0]].internal_nodes), key
        assert len(many.arrivals) == 3 * len(one.arrivals)
        for event, want in one.arrivals.items():
            for mapping in maps:
                got = many.arrival(mapping[event.node], event.transition)
                assert (got.time, got.slope) == (want.time, want.slope)

    def test_invalidate_caches_drops_templates(self, rca8):
        network, inputs = rca8
        analyzer = TimingAnalyzer(network, kernel="numpy")
        analyzer.analyze(inputs)
        assert analyzer.export_templates()
        analyzer.invalidate_caches()
        assert not analyzer.export_templates()
        # And a re-run after invalidation still agrees with itself.
        again = analyzer.analyze(inputs)
        assert again.arrivals


class TestTimeConstantsSlack:
    def test_accepts_rounding_at_td_scale(self):
        # T_R a hair above T_D (within 1e-9 relative) must not raise:
        # the vectorized kernel's reassociated sums can land there.
        t_d = 1e-6
        TimeConstants(t_p=2e-6, t_d=t_d, t_r=t_d * (1 + 1e-10))

    def test_rejects_genuine_violation(self):
        with pytest.raises(AnalysisError):
            TimeConstants(t_p=1e-6, t_d=1e-6, t_r=2e-6)
