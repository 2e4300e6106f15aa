import collections
import random
from unittest import mock

import numpy as np
import pytest

from pmmwm import matching
from pmmwm.errors import NoPerfectMatching
from pmmwm.graph import MAX_TOTAL_WEIGHT, MAX_WEIGHT, BipartiteGraph
from pmmwm.matching import (
    FREE,
    MatchState,
    batch_resolve,
    check_invariants,
    repair_after_ban,
    solve_full,
)

from helpers import random_complete_graph, random_dense_graph, seeded_graph
from oracles import augment_reference, brute_force_min_matching


@pytest.fixture(autouse=True)
def _certify(request, monkeypatch):
    """Every matcher call in this module ends with a check_invariants scan,
    except in TestScaling, whose wall-clock comparison must not time it."""
    if request.cls is not TestScaling:
        monkeypatch.setenv("PMMWM_CHECK_INVARIANTS", "1")


def complete(weights, m=1, ubar=None):
    n1 = len(weights)
    n2 = len(weights[0])
    ubar = ubar or n1
    edges = [(u, v, weights[u][v]) for u in range(n1) for v in range(n2)]
    return BipartiteGraph.from_edges(n1, n2, m, ubar, edges)


class TestSolveFull:
    def test_diagonal_optimum(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        assert st.total_weight == 2
        assert st.mate_u.tolist() == [0, 1]
        check_invariants(g, st)

    def test_tied_matchings(self):
        # both permutations cost 5
        g = complete([[1, 2], [3, 4]])
        st = solve_full(g)
        assert st.total_weight == 5
        check_invariants(g, st)

    def test_random_6x6_against_permutations(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_complete_graph(6, 6, 1, 6, rng)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            check_invariants(g, st)

    def test_rectangular_instances(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_dense_graph(4, 7, 1, 4, rng, density=0.6)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            check_invariants(g, st)

    def test_sparse_against_permutations(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_dense_graph(6, 6, 1, 6, rng, density=0.4)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            check_invariants(g, st)

    def test_duality_equation(self):
        rng = random.Random(5)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        assert st.total_weight == int(st.alpha.sum()) + int(st.beta.sum())

    def test_certificate_covers_free_columns(self):
        # A column U leaves free is matched to a zero-cost dummy row; lowering
        # its beta keeps the potentials feasible but loosens that edge.
        g = random_complete_graph(6, 8, 1, 6, random.Random(4))
        st = solve_full(g)
        assert st.phase_count == 6  # the dummy rows take free columns unphased
        free = sorted(set(range(8)) - set(st.mate_u.tolist()))[0]
        st.beta[free] -= 1
        with pytest.raises(AssertionError, match="matched edge not tight"):
            check_invariants(g, st)

    def test_wide_graph_stays_linear_in_n2(self):
        # The dummy rows share one zero row of eff and run no phase, so a
        # 10 x 20000 graph costs 10 phases and an 11 x 20000 table, not the
        # 20000 x 20000 (3.2 GB) one a materialised square table would need.
        rng = np.random.default_rng(8)
        weight = rng.integers(1, 1000, size=(10, 20000), dtype=np.int64)
        g = BipartiteGraph(10, 20000, 1, 10, weight)
        st = solve_full(g)
        assert st.eff.shape == (11, 20000)
        assert st.phase_count == 10  # the autouse fixture certified the state

    def test_infeasible_raises(self):
        g = BipartiteGraph.from_edges(2, 2, 1, 2, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(NoPerfectMatching):
            solve_full(g)

    def test_isolated_vertex_raises(self):
        g = BipartiteGraph.from_edges(2, 2, 1, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 5)])
        g.ban_edge(1, 0)
        with pytest.raises(NoPerfectMatching):
            solve_full(g)


def _square_graph(rng: random.Random) -> BipartiteGraph:
    """Seeded square graph for the warm start: n1 from 1 to 14 (1 and 2
    often), weights tied (w_max 1-3), all zero, spread or up to 2**40, and
    densities 0.1-1.0, so many graphs have no perfect matching."""
    n1 = rng.choice([1, 2, 2, rng.randint(3, 14), rng.randint(3, 14), rng.randint(3, 14)])
    w_max = rng.choice([0, 1, 2, 3, 3, 40, 1000, 1 << 40])
    density = rng.choice([0.1, 0.3, 0.6, 1.0])
    edges = [(u, v, rng.randint(0, w_max))
             for u in range(n1) for v in range(n1) if rng.random() < density]
    return BipartiteGraph.from_edges(n1, n1, 1, n1, edges)


def _scipy_optimum(g: BipartiteGraph) -> int | None:
    """Minimum perfect-matching weight by scipy's linear_sum_assignment, or
    None when no perfect matching over available edges exists."""
    lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
    avail = g.available_mask()
    if not avail.any():
        return None
    big = (int(g.weight.max()) + 1) * g.n1  # above any matching of real edges
    cost = np.where(avail, g.weight, big)
    rows, cols = lsa(cost)
    return int(cost[rows, cols].sum()) if avail[rows, cols].all() else None


def _cold_solve(g: BipartiteGraph) -> MatchState:
    """``solve_full`` without the warm start: one phase per row from zero
    potentials, then the dummy rows take the free columns."""
    st = MatchState(g)
    for u in range(g.n1):
        matching._augment(st, u)
    free = np.flatnonzero(st.mate_v == FREE)
    st.row_mate[g.n1:] = free
    st.mate_v[free] = np.arange(g.n1, st.n2)
    return st


class TestWarmStart:
    """``solve_full`` seeds square tables from auction prices; the autouse
    fixture certifies every state it returns."""

    def test_square_graphs_against_scipy(self):
        rng = random.Random(3232)
        seen = collections.Counter()
        for _ in range(1200):
            g = _square_graph(rng)
            expected = _scipy_optimum(g)
            try:
                st = solve_full(g)
            except NoPerfectMatching:
                assert expected is None
                seen["infeasible"] += 1
                continue
            assert st.total_weight == expected
            seen["n1=%d" % g.n1 if g.n1 <= 2 else "warm" if st.phase_count < g.n1
                 else "cold"] += 1
        assert min(seen[k] for k in ("infeasible", "n1=1", "n1=2", "warm")) >= 50, seen

    def test_infeasible_square_graphs_raise(self):
        no_edge = BipartiteGraph.from_edges(3, 3, 1, 3,
                                            [(0, 0, 1), (0, 1, 2), (1, 1, 1), (1, 2, 3)])
        # rows 0-2 have edges only into columns 0 and 1
        hall = BipartiteGraph.from_edges(
            4, 4, 1, 4, [(u, v, u + v) for u in range(3) for v in range(2)]
            + [(3, v, 1) for v in range(4)])
        all_banned = complete([[1, 2], [2, 1]])
        for u in range(2):
            for v in range(2):
                all_banned.ban_edge(u, v)
        for g in (no_edge, hall, all_banned):
            with pytest.raises(NoPerfectMatching):
                solve_full(g)

    def test_free_rows_start_their_phase_at_alpha_zero(self):
        # augment_reference reads alpha[start_u]; a free row left at its
        # reduced-cost minimum would start that phase off by it.
        real = matching._augment
        starts = []

        def phase(st, u):
            starts.append((int(st.row_mate[u]), int(st.alpha[u])))
            real(st, u)

        rng = random.Random(77)
        warm = 0
        with mock.patch.object(matching, "_augment", phase):
            for _ in range(300):
                g = _square_graph(rng)
                try:
                    warm += solve_full(g).phase_count < g.n1
                except NoPerfectMatching:
                    pass
        assert warm >= 50 and len(starts) >= 300
        assert set(starts) == {(FREE, 0)}

    def test_wide_tables_solve_as_before(self):
        # Bit-identical to the cold solve: mates, potentials and phase count.
        rng = random.Random(44)
        solved = 0
        for _ in range(300):
            n1 = rng.randint(1, 10)
            n2 = n1 + rng.randint(0 if n1 == 1 else 1, 4)  # 1 x 1 starts cold too
            g = seeded_graph(rng, n1, n2, rng.choice([1, 2, 3, 40, 1000]))
            try:
                cold = _snapshot(_cold_solve(g))
            except NoPerfectMatching:
                with pytest.raises(NoPerfectMatching):
                    solve_full(g)
                continue
            assert _snapshot(solve_full(g)) == cold
            solved += 1
        g = random_dense_graph(100, 130, 1, 100, rng, density=0.3, w_max=1000)
        assert _snapshot(solve_full(g)) == _snapshot(_cold_solve(g))
        assert solved >= 150

    def test_capped_prices_stay_certified(self, monkeypatch):
        # A price past the cap stops the auction; the clamped prices still
        # give a feasible start.
        monkeypatch.setattr(matching, "_PRICE_CAP", 50)
        rng = random.Random(9)
        for _ in range(40):
            g = random_dense_graph(12, 12, 1, 12, rng, density=0.7, w_max=1000)
            st = solve_full(g)
            assert st.total_weight == _scipy_optimum(g)


class TestRepairAfterBan:
    def test_unmatched_edge_ban_is_noop(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 1)  # not in the diagonal optimum
        st = repair_after_ban(g, st, 0, 1)
        assert st.total_weight == 2
        assert st.mate_u.tolist() == [0, 1]
        check_invariants(g, st)

    def test_matched_edge_ban_reoptimizes(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 0)
        st = repair_after_ban(g, st, 0, 0)
        assert st.total_weight == 4
        assert st.mate_u.tolist() == [1, 0]
        check_invariants(g, st)

    def test_single_phase_per_repair(self):
        rng = random.Random(9)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        phases = st.phase_count
        u = 3
        g.ban_edge(u, int(st.mate_u[u]))
        st = repair_after_ban(g, st, u, int(st.mate_u[u]))
        assert st.phase_count - phases <= 1

    def test_veto_rolls_back_state(self):
        # u1 has degree 1: banning its only edge must fail and roll back
        g = BipartiteGraph.from_edges(2, 2, 1, 2,
                                      [(0, 0, 1), (0, 1, 1), (1, 0, 5)])
        st = solve_full(g)
        before_mates = st.mate_u.tolist()
        before_weight = st.total_weight
        g.ban_edge(1, 0)
        with pytest.raises(NoPerfectMatching):
            repair_after_ban(g, st, 1, 0)
        g.unban_edge(1, 0)
        assert st.mate_u.tolist() == before_mates
        assert st.total_weight == before_weight
        check_invariants(g, st)

    def test_fifty_random_bans_match_full_solve(self):
        rng = random.Random(123)
        for trial in range(6):
            g = random_dense_graph(8, 8, 1, 8, rng, density=0.9)
            st = solve_full(g)
            for _ in range(50):
                candidates = [(u, v) for u in range(8) for v in range(8)
                              if g.is_available(u, v)]
                u, v = candidates[rng.randrange(len(candidates))]
                g.ban_edge(u, v)
                try:
                    st = repair_after_ban(g, st, u, v)
                except NoPerfectMatching:
                    g.unban_edge(u, v)
                    continue
                check_invariants(g, st)
                assert st.total_weight == solve_full(g).total_weight

    def test_unbanned_edge_raises_with_state_untouched(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        before = _snapshot(st)
        with pytest.raises(ValueError, match="not banned"):
            repair_after_ban(g, st, 0, 0)
        assert _snapshot(st) == before

    @pytest.mark.parametrize("extra_cols", [0, 2])
    def test_veto_iff_kuhn_check_fails(self, extra_cols):
        """A ban is vetoed exactly when the plain perfect-matching check
        fails on the graph with the ban, on sparse graphs where both
        outcomes are common."""
        outcomes = {True: 0, False: 0}
        for seed in range(150):
            rng = random.Random(seed)
            n1 = rng.randint(2, 8)
            g = random_dense_graph(n1, n1 + extra_cols, 1, n1, rng, density=0.25)
            st = solve_full(g)
            for _ in range(8):
                u = rng.randrange(n1)
                cols = [v for v in range(g.n2) if g.is_available(u, v)]
                v = int(st.mate_u[u]) if rng.random() < 0.75 else rng.choice(cols)
                g.ban_edge(u, v)
                feasible = g.has_perfect_matching()
                try:
                    repair_after_ban(g, st, u, v)
                    vetoed = False
                except NoPerfectMatching:
                    g.unban_edge(u, v)
                    vetoed = True
                assert vetoed == (not feasible), (seed, u, v)
                outcomes[vetoed] += 1
        assert min(outcomes.values()) > 100, outcomes

    def test_rectangular_bans_match_full_solve(self):
        suboptimal = []
        for seed in range(200):
            rng = random.Random(seed)
            g = random_complete_graph(6, 8, 1, 6, rng, w_max=20)
            st = solve_full(g)
            for _ in range(5):
                u = rng.randrange(6)
                v = int(st.mate_u[u])
                g.ban_edge(u, v)
                try:
                    repair_after_ban(g, st, u, v)
                except NoPerfectMatching:
                    g.unban_edge(u, v)
            fresh = solve_full(g).total_weight
            if st.total_weight != fresh:
                suboptimal.append((seed, st.total_weight, fresh))
        assert suboptimal == []


class TestRepairAfterUnban:
    def test_loose_edge_restore_is_noop(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 1)
        st = repair_after_ban(g, st, 0, 1)
        alpha_before = st.alpha.copy()
        g.unban_edge(0, 1)
        st = batch_resolve(g, st, {(0, 1)})
        assert st.total_weight == 2
        assert (st.alpha == alpha_before).all()
        check_invariants(g, st)

    def test_restore_recovers_optimum(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 0)
        st = repair_after_ban(g, st, 0, 0)
        assert st.total_weight == 4
        g.unban_edge(0, 0)
        st = batch_resolve(g, st, {(0, 0)})
        assert st.total_weight == 2
        check_invariants(g, st)

    def test_ban_unban_round_trips(self):
        rng = random.Random(77)
        for trial in range(10):
            g = random_complete_graph(8, 8, 1, 8, rng)
            st = solve_full(g)
            original = st.total_weight
            for _ in range(12):
                u = rng.randrange(8)
                v = int(st.mate_u[u])
                g.ban_edge(u, v)
                st = repair_after_ban(g, st, u, v)
                g.unban_edge(u, v)
                st = batch_resolve(g, st, {(u, v)})
                check_invariants(g, st)
                assert st.total_weight == original


class TestMixedSequences:
    def test_mixed_ban_unban_against_oracle(self):
        rng = random.Random(2024)
        for trial in range(5):
            g = random_dense_graph(8, 8, 1, 8, rng, density=0.85)
            st = solve_full(g)
            banned: list[tuple[int, int]] = []
            for _ in range(50):
                if banned and rng.random() < 0.4:
                    u, v = banned.pop(rng.randrange(len(banned)))
                    g.unban_edge(u, v)
                    st = batch_resolve(g, st, {(u, v)})
                else:
                    avail = [(u, v) for u in range(8) for v in range(8)
                             if g.is_available(u, v)]
                    u, v = avail[rng.randrange(len(avail))]
                    g.ban_edge(u, v)
                    try:
                        st = repair_after_ban(g, st, u, v)
                        banned.append((u, v))
                    except NoPerfectMatching:
                        g.unban_edge(u, v)
                check_invariants(g, st)
                assert st.total_weight == solve_full(g).total_weight


class TestBatchResolve:
    def test_empty_batch(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        assert batch_resolve(g, st, set()) is st

    def test_partial_release_matches_oracle(self):
        rng = random.Random(15)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        bans = [(0, int(st.mate_u[0]))]
        g.ban_edge(*bans[0])
        st = repair_after_ban(g, st, *bans[0])
        for u in (2, 5):
            v = int(st.mate_u[u])
            g.ban_edge(u, v)
            st = repair_after_ban(g, st, u, v)
            bans.append((u, v))
        released = set(bans[:2])
        for e in released:
            g.unban_edge(*e)
        st = batch_resolve(g, st, released)
        check_invariants(g, st)
        assert st.total_weight == solve_full(g).total_weight

    def test_release_all_restores_original(self):
        rng = random.Random(31)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        original = st.total_weight
        bans = []
        for u in range(4):  # half of U: a large batch still repairs edge by edge
            v = int(st.mate_u[u])
            g.ban_edge(u, v)
            st = repair_after_ban(g, st, u, v)
            bans.append((u, v))
        for e in bans:
            g.unban_edge(*e)
        phases = st.phase_count
        st = batch_resolve(g, st, set(bans))
        check_invariants(g, st)
        assert st.total_weight == original
        assert st.phase_count - phases <= len(bans)

    def test_unavailable_edge_raises_before_any_restore(self):
        g = complete([[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        st = solve_full(g)
        edges = [(0, 1), (1, 2), (2, 0)]
        for (u, v) in edges:
            g.ban_edge(u, v)
            repair_after_ban(g, st, u, v)
        g.unban_edge(0, 1)
        g.unban_edge(2, 0)
        before = _snapshot(st)
        with pytest.raises(ValueError, match=r"\(1, 2\) is not available"):
            batch_resolve(g, st, set(edges))
        assert _snapshot(st) == before
        g.ban_edge(0, 1)
        g.ban_edge(2, 0)
        check_invariants(g, st)


def _reference_phase(st, start_u):
    """Drop-in for ``matching._augment`` that runs ``augment_reference``."""
    st.phase_count += 1
    n1 = len(st.mate_u)  # every dummy row reads the zero row eff[n1]
    eff = st.eff[np.minimum(np.arange(st.n2), n1)].tolist()
    alpha, beta = st.alpha.tolist(), st.beta.tolist()
    row_mate, mate_v = st.row_mate.tolist(), st.mate_v.tolist()
    if not augment_reference(eff, alpha, beta, row_mate, mate_v, start_u,
                             matching._INF_CUTOFF):
        raise NoPerfectMatching(f"no augmenting path from U-vertex {start_u}")
    st.alpha[:] = alpha
    st.beta[:] = beta
    st.row_mate[:] = row_mate
    st.mate_v[:] = mate_v


def _snapshot(st):
    return (st.row_mate.tolist(), st.mate_v.tolist(), st.alpha.tolist(),
            st.beta.tolist(), st.eff.tolist(), st.total_weight, st.phase_count)


def _tie_graph(rng: random.Random) -> BipartiteGraph:
    """Small seeded ``seeded_graph``: n1 <= 8 and w_max mostly 1-3."""
    n1 = rng.randint(1, 8)
    return seeded_graph(rng, n1, n1 + rng.choice([0, 0, 1, 3]),
                         rng.choice([1, 2, 3, 3, 40]))


class TestAgainstReferencePhase:
    """Every public matcher operation, run once with ``_augment`` and once
    with the list-based ``augment_reference`` in its place, must leave
    identical mates, potentials, weights and phase counts."""

    @staticmethod
    def _both(op, states):
        """Apply ``op(st)`` to the real and the reference state; return
        whether it raised NoPerfectMatching (both sides must agree)."""
        outcomes = []
        for st, phase in zip(states, (matching._augment, _reference_phase)):
            with mock.patch.object(matching, "_augment", phase):
                try:
                    op(st)
                    outcomes.append(False)
                except NoPerfectMatching:
                    outcomes.append(True)
        assert outcomes[0] == outcomes[1]
        assert _snapshot(states[0]) == _snapshot(states[1])
        return outcomes[0]

    @staticmethod
    def _solve_both(g):
        """``solve_full`` on the real and the reference side; both states,
        or None when both sides found no perfect matching."""
        states = []
        for phase in (matching._augment, _reference_phase):
            with mock.patch.object(matching, "_augment", phase):
                try:
                    states.append(solve_full(g))
                except NoPerfectMatching:
                    states.append(None)
        if states[0] is None or states[1] is None:
            assert states[0] is states[1] is None
            return None
        assert _snapshot(states[0]) == _snapshot(states[1])
        return states

    def _run(self, g, rng, seen):
        """Solve ``g`` on both sides, then apply 25 random bans, unbans and
        batch unbans, comparing the two states after each."""
        states = self._solve_both(g)
        if states is None:
            seen["infeasible"] += 1
            return
        banned = [(int(u), int(v)) for u, v in zip(*g.banned.nonzero())]
        for _ in range(25):
            roll = rng.random()
            if roll < 0.5 or not banned:
                avail = list(zip(*g.available_mask().nonzero()))
                matched = [(u, int(states[0].mate_u[u])) for u in range(g.n1)]
                u, v = map(int, rng.choice(matched if rng.random() < 0.7 else avail))
                before = _snapshot(states[0])
                g.ban_edge(u, v)
                if self._both(lambda st: repair_after_ban(g, st, u, v), states):
                    g.unban_edge(u, v)
                    # the vetoed phase changed nothing but the phase count
                    assert _snapshot(states[0])[:-1] == before[:-1]
                    seen["vetoed"] += 1
                else:
                    banned.append((u, v))
                    seen["ban"] += 1
            elif roll < 0.75:
                u, v = banned.pop(rng.randrange(len(banned)))
                g.unban_edge(u, v)
                assert not self._both(lambda st: batch_resolve(g, st, {(u, v)}), states)
                seen["unban"] += 1
            else:
                rng.shuffle(banned)
                cut = rng.randint(1, len(banned))
                released, banned = set(banned[:cut]), banned[cut:]
                for e in released:
                    g.unban_edge(*e)
                assert not self._both(lambda st: batch_resolve(g, st, released), states)
                seen["batch"] += 1

    def test_operations_match_reference(self):
        rng = random.Random(505)
        seen = {"infeasible": 0, "vetoed": 0, "ban": 0, "unban": 0, "batch": 0}
        for _ in range(160):
            self._run(_tie_graph(rng), rng, seen)
        assert min(seen.values()) >= 20, seen

    def test_long_paths_match_reference(self):
        # Larger graphs with weights 1-3: augmenting paths run through many
        # settled columns with many equal distances, which exercises the
        # predecessor rule of the path recovery.
        rng = random.Random(606)
        seen = {"infeasible": 0, "vetoed": 0, "ban": 0, "unban": 0, "batch": 0}
        for _ in range(12):
            n1 = rng.randint(20, 60)
            g = seeded_graph(rng, n1, n1 + rng.choice([0, 3]), rng.randint(1, 3))
            self._run(g, rng, seen)
        assert min(seen["ban"], seen["unban"], seen["batch"]) >= 40, seen

    def _cold_phases(self, g):
        """One phase per row of ``g``, in row order, on fresh states (zero
        potentials) on the real and the reference side: the phase sequence
        the tie tests below pin, whatever ``solve_full``'s warm start does."""
        states = [MatchState(g), MatchState(g)]
        for u in range(g.n1):
            assert not self._both(lambda st: matching._augment(st, u), states)
        return states[0]

    def test_start_row_wins_tie_with_settled_column(self):
        # Phase 1 settles column 0 (row 0's mate) at distance 0; the candidate
        # through it for column 1 is 1, equal to row 1's own reduced cost 1,
        # so column 1 is reached from row 1 directly and row 0 keeps column 0.
        st = self._cold_phases(complete([[1, 2], [1, 2]]))
        assert st.mate_u.tolist() == [0, 1]

    def test_earlier_settled_column_wins_tie(self):
        # Phase 2 settles column 0 and then column 1, both at distance 0, and
        # each gives column 2 the candidate 1 (row 2's own cost is 4): the
        # path runs through column 0, so row 0 moves and row 1 stays.
        st = self._cold_phases(complete([[1, 5, 2], [5, 1, 2], [1, 1, 5]]))
        assert st.mate_u.tolist() == [2, 1, 0]


def _heavy_graph(rng: random.Random, n1: int, n2: int) -> BipartiteGraph:
    """Weights up to the largest a graph accepts for this n1 (n1 * max_w at
    MAX_TOTAL_WEIGHT, capped at MAX_WEIGHT), mixed with near-zero ones so the
    potentials spread widely; about 1 in 5 edges absent and row 0 sparse
    (its planted edge plus one more)."""
    top = min(MAX_WEIGHT, MAX_TOTAL_WEIGHT // n1)
    planted = rng.sample(range(n2), n1)
    extra = rng.choice([v for v in range(n2) if v != planted[0]])
    edges = []
    for u in range(n1):
        for v in range(n2):
            keep = v in (planted[u], extra) if u == 0 else (
                v == planted[u] or rng.random() < 0.8)
            if keep:
                w = rng.choice([top, top - rng.randint(0, 1000), rng.randint(0, 1000),
                                rng.randint(0, top)])
                edges.append((u, v, w))
    g = BipartiteGraph.from_edges(n1, n2, 1, n1, edges)
    assert int(g.weight.max()) == top and n1 * top == MAX_TOTAL_WEIGHT
    return g


def _ban_unban_walk(g, st, rng, steps, pick_u):
    """Take ``steps`` random repair steps on ``st``: restore a banned edge
    (30%) or ban the matched edge of ``pick_u()``, unbanning it again when
    the ban is vetoed. Yields the state and whether the step was a veto."""
    banned = []
    for _ in range(steps):
        vetoed = False
        if banned and rng.random() < 0.3:
            u, v = banned.pop(rng.randrange(len(banned)))
            g.unban_edge(u, v)
            st = batch_resolve(g, st, {(u, v)})
        else:
            u = pick_u()
            v = int(st.mate_u[u])
            g.ban_edge(u, v)
            try:
                st = repair_after_ban(g, st, u, v)
                banned.append((u, v))
            except NoPerfectMatching:
                g.unban_edge(u, v)
                vetoed = True
        yield st, vetoed


class TestInt64Headroom:
    """The penalty row adds 2**62 to candidate rows that can hold INF = 2**61
    plus potentials of about n1 * max_w, or the warm start's prices on square
    tables; these graphs sit at the weight limits and the autouse fixture
    certifies every operation."""

    @pytest.mark.parametrize("extra_cols", [0, 3])
    @pytest.mark.parametrize("n1", [8, 64])
    def test_ban_unban_at_max_weight(self, n1, extra_cols):
        rng = random.Random(n1)
        # brute force enumerates n2! / (n2 - n1)! maps: at most 8! here
        small = n1 + extra_cols <= 8
        for _ in range(6 if n1 <= 8 else 2):
            g = _heavy_graph(rng, n1, n1 + extra_cols)
            st = solve_full(g)
            if small:
                assert st.total_weight == brute_force_min_matching(g)
            vetoes = 0
            # row 0 has two edges, so banning both is vetoed
            for st, vetoed in _ban_unban_walk(
                    g, st, rng, 30, lambda: 0 if rng.random() < 0.3 else rng.randrange(n1)):
                vetoes += vetoed
                fresh = brute_force_min_matching(g) if small else solve_full(g).total_weight
                assert st.total_weight == fresh
            released = {(int(u), int(v)) for u, v in zip(*g.banned.nonzero())}
            for e in released:
                g.unban_edge(*e)
            st = batch_resolve(g, st, released)
            check_invariants(g, st)
            assert vetoes


    @pytest.mark.parametrize("n1", [8, 64, 128])
    def test_warm_start_within_bound(self, n1):
        # Square tables start from auction prices; the bound at
        # matching._MASKED holds for the state solve_full returns.
        rng = random.Random(n1 + 1)
        for _ in range(4 if n1 <= 8 else 2):
            g = _heavy_graph(rng, n1, n1)
            st = solve_full(g)
            assert st.phase_count < n1  # the warm start kept some pairs
            assert st.alpha.min() >= 0 >= st.beta.max()
            assert -int(st.beta.min()) <= matching._PRICE_CAP + 2**56 < 2**59
            if n1 <= 8:
                assert st.total_weight == brute_force_min_matching(g)
            else:
                assert st.total_weight == _cold_solve(g).total_weight


class TestAgainstScipy:
    """``solve_full`` and repairs against scipy's linear_sum_assignment at
    sizes the brute-force oracle cannot reach."""

    @staticmethod
    def _optimum(g: BipartiteGraph) -> int:
        lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
        avail = g.available_mask()
        big = int(g.weight.max()) * g.n1 + 1  # above any matching of real edges
        cost = np.where(avail, g.weight, big)
        rows, cols = lsa(cost)
        assert avail[rows, cols].all(), "the optimum used an absent edge"
        return int(cost[rows, cols].sum())

    @pytest.mark.parametrize("rectangular", [False, True])
    @pytest.mark.parametrize("n1", [50, 200, 500])
    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_full_solve_and_repairs(self, n1, density, rectangular):
        pytest.importorskip("scipy.optimize")
        rng = random.Random(n1 + int(density * 10))
        n2 = n1 + n1 // 5 if rectangular else n1
        g = random_dense_graph(n1, n2, 1, n1, rng, density=density, w_max=1000)
        st = solve_full(g)
        assert st.total_weight == self._optimum(g)
        for st, _ in _ban_unban_walk(g, st, rng, 20, lambda: rng.randrange(n1)):
            assert st.total_weight == self._optimum(g)


class TestScaling:
    def test_repair_cheaper_than_full_solve(self):
        import time
        rng = random.Random(8)
        n = 150
        g = random_complete_graph(n, n, 1, n, rng, w_max=10**6)
        t0 = time.perf_counter()
        st = solve_full(g)
        full_time = time.perf_counter() - t0
        u = 10
        v = int(st.mate_u[u])
        g.ban_edge(u, v)
        t0 = time.perf_counter()
        st = repair_after_ban(g, st, u, v)
        repair_time = time.perf_counter() - t0
        assert repair_time < full_time
