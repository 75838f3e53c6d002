import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, double_cycle, directed_path, out_star, random_digraph
from maxleaf import (
    ContractError,
    DecomposeOutcome,
    Digraph,
    ForwardArc,
    GenSpec,
    InvariantError,
    NoOutBranchingError,
    OutTree,
    PathCover,
    PathDecomposition,
    decompose,
    find_out_branching,
    generate,
    has_out_branching,
    path_cover_from_out_branching,
    strongly_connected_components,
    underlying_undirected,
    validate_out_tree,
)
from maxleaf.decompose import (
    backward_component_check,
    forward_arc_heads,
    forward_arcs_on_path,
    off_path_out_neighbors,
    reduce_forward_arcs,
    trim_around,
    witness_from_forward_arcs,
    witness_from_off_path,
)
from maxleaf.digraph import source_strong_components
from oracles import all_digraphs, backward_component_check_reference, decompose_reference


# ---------------------------------------------------------------- trees


def test_find_out_branching_prefers_smallest_source_vertex():
    d = cycle(5)
    t = find_out_branching(d)
    assert t.root == 0
    assert t.is_spanning()
    t2 = find_out_branching(d, root=3)
    assert t2.root == 3


def test_find_out_branching_failures():
    with pytest.raises(NoOutBranchingError) as exc:
        find_out_branching(Digraph(4, [(0, 1), (2, 3)]))
    assert exc.value.source_components == [[0], [2]]
    with pytest.raises(ContractError):
        find_out_branching(directed_path(3), root=2)  # nothing reachable backwards
    with pytest.raises(ContractError):
        find_out_branching(directed_path(3), root=9)


# ----------------------------------------------------------- path cover


def test_path_cover_of_out_star():
    t = find_out_branching(out_star(4))
    cover = path_cover_from_out_branching(t)
    assert [list(p) for p in cover.paths] == [[1], [2], [0, 3]]


def test_path_cover_cuts_after_last_branching_vertex():
    t = OutTree(0, {1: 0, 2: 1, 3: 1, 4: 3}, 5)
    cover = path_cover_from_out_branching(t)
    assert [list(p) for p in cover.paths] == [[2], [0, 1, 3, 4]]


def test_path_cover_single_path_for_a_path():
    t = find_out_branching(directed_path(6))
    cover = path_cover_from_out_branching(t)
    assert [list(p) for p in cover.paths] == [[0, 1, 2, 3, 4, 5]]


def test_path_cover_rejects_non_spanning_tree():
    with pytest.raises(ContractError):
        path_cover_from_out_branching(OutTree(0, {1: 0}, 3))


def test_path_cover_counts_match_leaves_fuzzed():
    checked = 0
    for seed in range(120):
        d = random_digraph(seed, 9, 0.3)
        if not has_out_branching(d):
            continue
        t = find_out_branching(d)
        cover = path_cover_from_out_branching(t)
        cover.validate(d)
        assert len(cover.paths) == t.leaf_count
        # each path is a directed path of the tree itself
        arcs = set(t.arcs())
        for p in cover.paths:
            for a, b in zip(p, p[1:]):
                assert (a, b) in arcs
        checked += 1
    assert checked > 40


# ------------------------------------------------------ off-path arcs


def test_off_path_out_neighbors():
    d = Digraph(5, [(0, 1), (1, 2), (0, 3), (1, 4), (3, 0)])
    assert off_path_out_neighbors(d, [0, 1, 2]) == {3, 4}
    assert off_path_out_neighbors(d, [0, 3]) == {1}


def test_witness_from_off_path_leafs_every_target():
    p = [0, 1, 2]
    w = {3, 4}
    choice = {3: 0, 4: 1}
    t = witness_from_off_path(p, w, choice, 5)
    assert t.root == 0
    assert t.leaves == {2, 3, 4}
    assert t.parent == {1: 0, 2: 1, 3: 0, 4: 1}


# ------------------------------------------------------------- trimming


def test_trim_around_keeps_cover_path_arcs():
    d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 3)])
    cover = PathCover([[0, 1, 2, 3]])
    trimmed = trim_around(d, {3}, cover)
    # (2,3) survives as a cover arc; (3,1) and (0,3) touch 3 and go
    assert trimmed.arcs == {(0, 1), (1, 2), (2, 3)}
    with pytest.raises(ContractError):
        trim_around(d, {9}, cover)


# --------------------------------------------------------- forward arcs


def test_forward_arc_needs_a_gap():
    with pytest.raises(ContractError):
        ForwardArc(2, 3, 0, 1)
    fa = ForwardArc(0, 2, 5, 7)
    assert (fa.i, fa.j, fa.tail, fa.head) == (0, 2, 5, 7)


def test_forward_arcs_on_path_and_reduction():
    p = [0, 1, 2, 3, 4]
    d = Digraph(5, [(0, 2), (0, 4), (1, 4), (2, 4), (1, 2)])
    fas = forward_arcs_on_path(d, p)
    assert [(fa.i, fa.j) for fa in fas] == [(0, 2), (0, 4), (1, 4), (2, 4)]
    reduced = reduce_forward_arcs(fas)
    # head 2 keeps (0,2); head 4 keeps the shortest span (2,4)
    assert [(fa.i, fa.j) for fa in reduced] == [(0, 2), (2, 4)]
    assert forward_arc_heads(reduced) == {2, 4}


def test_forward_arc_chain_witness():
    p = [0, 1, 2, 3, 4]
    fas = [ForwardArc(0, 2, 0, 2), ForwardArc(2, 4, 2, 4)]
    t = witness_from_forward_arcs(p, fas, 3, 5)
    assert t is not None
    assert set(t.arcs()) == {(0, 1), (0, 2), (2, 3), (2, 4)}
    assert t.leaves == {1, 3, 4}


def test_forward_arc_clique_witness():
    # three intervals all covering position 2 and no disjoint pair
    p = [0, 1, 2, 3, 4, 5]
    fas = [ForwardArc(0, 3, 0, 3), ForwardArc(1, 4, 1, 4), ForwardArc(2, 5, 2, 5)]
    t = witness_from_forward_arcs(p, fas, 3, 6)
    assert t is not None
    assert t.root == 0
    assert t.leaves == {3, 4, 5}
    assert t.parent[3] == 0 and t.parent[4] == 1 and t.parent[5] == 2


def test_forward_arc_no_witness_when_few():
    p = [0, 1, 2, 3, 4]
    assert witness_from_forward_arcs(p, [], 3, 5) is None
    fas = [ForwardArc(0, 2, 0, 2)]
    assert witness_from_forward_arcs(p, fas, 3, 5) is None


def test_forward_arc_guarantee_violation_detected():
    # k=3: more than (k-2)(k-1)=2 heads with neither structure is a bug,
    # but any 3 one-per-head arcs on a short path always admit one, so
    # force the invariant error with duplicated heads instead
    p = list(range(12))
    fas = [ForwardArc(0, 11, 0, 11), ForwardArc(1, 11, 1, 11), ForwardArc(2, 11, 2, 11)]
    t = witness_from_forward_arcs(p, fas, 5, 12)
    assert t is None  # under the bound, so no error even though nothing fits


def test_breadth_first_cover_paths_have_no_forward_arcs():
    # decompose has no forward-arc stage because of this lemma: along a
    # path of a breadth-first tree depth grows by one per step, and an
    # arc raises depth by at most one, so no arc jumps two positions ahead
    specs = [
        GenSpec(family="cycle", n=12),
        GenSpec(family="double-cycle", n=12),
        GenSpec(family="path", n=12),
        GenSpec(family="out-star", n=8),
        GenSpec(family="tournament-transitive", n=9),
    ]
    for seed in range(8):
        specs += [
            GenSpec(family="tournament-random", n=9, seed=seed),
            GenSpec(family="multipartite-tournament", parts=(3, 2, 4), seed=seed),
            GenSpec(family="min-in-degree-random", n=14, d=1 + seed % 2, seed=seed),
            GenSpec(family="strong-random", n=20, extra=seed, seed=seed),
        ]
    hosts = [generate(s) for s in specs]
    hosts += [random_digraph(seed, 12, 0.2) for seed in range(60)]
    rng = random.Random(5)
    checked = long_paths = 0
    for g in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        d = Digraph(g.n, [(perm[a], perm[b]) for a, b in g.arcs])
        comps = strongly_connected_components(d)
        sources = source_strong_components(comps)
        if len(sources) != 1:
            continue
        root = rng.choice(comps.components[sources[0]])
        for path in path_cover_from_out_branching(find_out_branching(d, root)).paths:
            assert forward_arcs_on_path(d, path) == [], (sorted(d.arcs), root, path)
            long_paths += len(path) >= 3
        checked += 1
    assert checked >= 70 and long_paths >= 100


# -------------------------------------------------------- backward arcs


def test_backward_witness_from_suffix_arcs():
    arcs = [(i, i + 1) for i in range(5)] + [(5, 0), (5, 1), (4, 2)]
    c = Digraph(6, arcs)
    res = backward_component_check(c, list(range(6)), 3)
    assert isinstance(res, OutTree)
    assert res.root == 3
    assert res.leaves == {0, 1, 2}
    report = validate_out_tree(c, res)
    assert report.ok


def test_backward_component_gives_ordering_when_sparse():
    arcs = [(i, i + 1) for i in range(5)] + [(5, 0)]
    c = Digraph(6, arcs)
    res = backward_component_check(c, list(range(6)), 3)
    assert res == [0, 1, 2, 3, 4, 5]


def test_backward_component_rejects_forward_chords():
    arcs = [(i, i + 1) for i in range(4)] + [(0, 3)]
    with pytest.raises(ContractError):
        backward_component_check(Digraph(5, arcs), list(range(5)), 2)
    with pytest.raises(ContractError):
        backward_component_check(Digraph(3, [(0, 1), (1, 2)]), [0, 1], 2)


def _path_component(q: int, chords: list[tuple[int, int]], rng: random.Random):
    """A digraph on 0..q-1 with a Hamiltonian path in shuffled order plus
    chords given by path positions; returns (digraph, path)."""
    p = list(range(q))
    rng.shuffle(p)
    arcs = [(p[i], p[i + 1]) for i in range(q - 1)]
    arcs += [(p[a], p[b]) for a, b in chords if a != b]
    return Digraph(q, arcs), p


def _outcome(fn, c, p, k):
    try:
        res = fn(c, p, k)
    except ContractError as exc:
        return "error", str(exc)
    if isinstance(res, OutTree):
        return "witness", res.root, res.parent, res.host_size
    return "ordering", res


def test_backward_check_matches_reference_on_seeded_components():
    rng = random.Random(7)
    kinds = set()
    for _ in range(300):
        q = rng.randint(1, 30)
        chords = []
        for _ in range(rng.randint(0, 2 * q)):
            a, b = rng.randrange(q), rng.randrange(q)
            chords.append((max(a, b), min(a, b)))  # backward: later to earlier
        if rng.random() < 0.1 and q >= 3:
            for _ in range(rng.randint(1, 4)):
                a = rng.randrange(q - 2)
                chords.append((a, rng.randrange(a + 2, q)))  # forward chords
        c, p = _path_component(q, chords, rng)
        k = rng.randint(2, 5)
        got = _outcome(backward_component_check, c, p, k)
        assert got == _outcome(backward_component_check_reference, c, p, k)
        kinds.add(got[0])
    assert kinds == {"witness", "ordering", "error"}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_backward_check_matches_reference_property(data):
    q = data.draw(st.integers(1, 12))
    chords = data.draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=20)
    )
    chords = [(max(a, b), min(a, b)) for a, b in chords]
    c, p = _path_component(q, chords, random.Random(data.draw(st.integers(0, 999))))
    k = data.draw(st.integers(2, 4))
    assert _outcome(backward_component_check, c, p, k) == _outcome(
        backward_component_check_reference, c, p, k
    )


class _CountingDigraph:
    """Delegates to a Digraph and counts in_neighbors calls."""

    def __init__(self, d: Digraph) -> None:
        self._d = d
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._d, name)

    def in_neighbors(self, v: int):
        self.calls += 1
        return self._d.in_neighbors(v)


def test_backward_check_reads_each_in_neighborhood_a_bounded_number_of_times():
    n = 3000
    p = list(range(n))
    random.Random(3).shuffle(p)
    arcs = [(p[i], p[(i + 1) % n]) for i in range(n)]  # a relabeled cycle
    c = _CountingDigraph(Digraph(n, arcs))
    assert backward_component_check(c, p, 3) == p
    # the prefix-by-prefix rescan made about n^2/2 calls here
    assert c.calls <= 2 * n


# ------------------------------------------------------------- pipeline


def test_outcome_contract():
    t = OutTree(0, {1: 0, 2: 0}, 3)
    with pytest.raises(ContractError):
        DecomposeOutcome(2)
    with pytest.raises(ContractError):
        DecomposeOutcome(2, witness=t, decomposition=PathDecomposition([[0]]))
    with pytest.raises(InvariantError):
        DecomposeOutcome(3, witness=t)  # 2 leaves < 3
    with pytest.raises(InvariantError):
        DecomposeOutcome(2, decomposition=PathDecomposition([list(range(10))]))
    ok = DecomposeOutcome(2, witness=t, trace=("out-branching",))
    assert ok.is_witness and ok.trace == ("out-branching",)


def test_decompose_rejects_small_k():
    with pytest.raises(ContractError):
        decompose(cycle(4), 1)


def test_decompose_star_wins_immediately():
    out = decompose(out_star(6), 3)
    assert out.is_witness
    assert out.trace == ("out-branching",)
    assert out.witness.leaf_count == 5


def test_decompose_cycle_reaches_decomposition():
    out = decompose(cycle(5), 2)
    assert not out.is_witness
    assert out.trace[-1] == "decomposition"
    assert out.decomposition.width <= 8
    out.decomposition.check(underlying_undirected(cycle(5)))


def test_decompose_double_cycle():
    d = double_cycle(6)
    out = decompose(d, 3)
    assert not out.is_witness
    assert out.decomposition.width <= 27
    out.decomposition.check(underlying_undirected(d))
    # k=2 finds the two-leaf witness instead
    out2 = decompose(d, 2)
    assert out2.is_witness


def test_decompose_single_vertex():
    out = decompose(Digraph(1, []), 2)
    assert not out.is_witness
    assert out.decomposition.bags == ((0,),)


def test_decompose_respects_explicit_root():
    d = cycle(4)
    out = decompose(d, 2, root=2)
    assert not out.is_witness  # still a cycle from any root


def test_decompose_needs_an_out_branching():
    with pytest.raises(NoOutBranchingError):
        decompose(Digraph(4, [(0, 1), (2, 3)]), 2)


def test_decompose_rejects_a_piece_arc_two_positions_ahead(monkeypatch):
    # a breadth-first tree's cover has no such arc; a depth-first path
    # tree over the chord (0,2) does, and the piece reports it
    d = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    module = importlib.import_module("maxleaf.decompose")
    monkeypatch.setattr(
        module, "find_out_branching", lambda d, root: OutTree(0, {1: 0, 2: 1, 3: 2}, 4)
    )
    with pytest.raises(InvariantError, match=r"arc \(0,2\) jumps ahead"):
        decompose(d, 2)


def test_decompose_fuzzed_always_valid():
    g = underlying_undirected
    count = 0
    for seed in range(90):
        d = generate(GenSpec(family="strong-random", n=11, extra=seed % 14, seed=seed))
        for k in (2, 3, 4):
            out = decompose(d, k)
            assert out.k == k
            if out.is_witness:
                report = validate_out_tree(d, out.witness)
                assert report.ok
                assert out.witness.leaf_count >= k
            else:
                assert out.decomposition.width <= k**3
                out.decomposition.check(g(d))
            count += 1
    assert count == 270


def test_decompose_trace_prefix_order():
    stages = (
        "out-branching",
        "path-cover",
        "off-path",
        "trim",
        "backward-arcs",
        "decomposition",
    )
    for seed in range(25):
        d = generate(GenSpec(family="strong-random", n=9, extra=seed % 9, seed=seed))
        out = decompose(d, 3)
        assert out.trace == stages[: len(out.trace)]


def _decompose_outcome(fn, d: Digraph, k: int, root: int | None = None):
    out = fn(d, k, root)
    if out.is_witness:
        t = out.witness
        return "witness", t.root, list(t.parent.items()), t.host_size, out.trace
    pd = out.decomposition
    return "decomposition", pd.bags, pd.width, out.trace


def _relabeled(d: Digraph, rng: random.Random) -> Digraph:
    perm = list(range(d.n))
    rng.shuffle(perm)
    return Digraph(d.n, [(perm[a], perm[b]) for a, b in d.arcs])


def _reference_corpus():
    """(digraph, k, root) triples: every 4-vertex digraph with an
    out-branching, seeded random digraphs with n <= 12 (also from a
    second root), and relabeled closed families and strong-random n=200."""
    for d in all_digraphs(4):
        if has_out_branching(d):
            for k in (2, 3, 4):
                yield d, k, None
    rng = random.Random(26)
    for seed in range(150):
        d = random_digraph(seed, rng.randint(1, 12), rng.choice((0.12, 0.2, 0.35)))
        comps = strongly_connected_components(d)
        sources = source_strong_components(comps)
        if len(sources) != 1:
            continue
        for k in (2, 3, 4, 5):
            yield d, k, None
            yield d, k, rng.choice(comps.components[sources[0]])
    for d in _family_hosts(rng):
        for k in range(2, 7):
            yield d, k, None


def _family_hosts(rng: random.Random) -> list[Digraph]:
    specs = [GenSpec(family=f, n=n) for f in ("cycle", "path", "double-cycle") for n in (9, 40, 200)]
    specs += [GenSpec(family="strong-random", n=200, extra=5, seed=s) for s in range(3)]
    return [_relabeled(generate(spec), rng) for spec in specs]


def test_decompose_matches_the_rebuilding_reference():
    # the pieces are built from d and the bags swept from the path order;
    # the reference trims a copy of d, induces each piece and runs
    # ordering_to_path_decomposition on its underlying graph
    kinds = {}
    for d, k, root in _reference_corpus():
        got = _decompose_outcome(decompose, d, k, root)
        assert got == _decompose_outcome(decompose_reference, d, k, root), (sorted(d.arcs), k, root)
        kinds[got[-1][-1]] = kinds.get(got[-1][-1], 0) + 1
    # every producing stage but path-cover (which never decides) is reached
    assert set(kinds) == {"out-branching", "off-path", "backward-arcs", "decomposition"}
    assert min(kinds.values()) >= 20


class _Counter:
    def __init__(self, fn=None) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_decompose_builds_each_graph_once(monkeypatch):
    # no graph is built after the out-branching: no underlying graph (the
    # final check reads d), no trimmed copy of d, no induced subdigraph,
    # no per-piece Digraph or decomposition and no validating Digraph
    # constructor
    module = importlib.import_module("maxleaf.decompose")
    counters = {
        name: _Counter(getattr(module, name))
        for name in (
            "underlying_undirected",
            "trim_around",
            "induced_subdigraph",
            "ordering_to_path_decomposition",
        )
    }
    hosts = [(d, k) for d in _family_hosts(random.Random(1)) for k in range(2, 7)]
    hosts += [(random_digraph(seed, 12, 0.2), 3) for seed in range(40)]
    hosts = [(d, k) for d, k in hosts if has_out_branching(d)]
    validating = _Counter(Digraph.__init__)
    checked = _Counter(Digraph._from_checked)
    for name, counter in counters.items():
        monkeypatch.setattr(module, name, counter)
    monkeypatch.setattr(Digraph, "__init__", lambda self, *a: validating(self, *a))
    monkeypatch.setattr(Digraph, "_from_checked", staticmethod(checked))
    decompositions = witnesses = 0
    for d, k in hosts:
        if decompose(d, k).is_witness:
            witnesses += 1
        else:
            decompositions += 1
    assert witnesses >= 20 and decompositions >= 20
    for name, counter in counters.items():
        assert counter.calls == 0, name
    assert validating.calls == 0
    assert checked.calls == 0
