"""Brute-force reference implementations used only by the test suite.

These deliberately share no code with the package: matchings are enumerated
as raw permutations and partitions as labeled assignments, so any agreement
with the solver is meaningful.
"""

import io
import itertools
from functools import lru_cache

import numpy as np

from pmmwm.errors import InfeasibleInstance, ParseError
from pmmwm.graph import ABSENT, MAX_CELLS, MAX_TOTAL_WEIGHT, MAX_WEIGHT, BipartiteGraph

# Small enough that a whole row of sentinels cannot overflow int64 when summed.
_BIG = 1 << 56


@lru_cache(maxsize=None)
def _perm_table(n2: int, n1: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n2), n1)), dtype=np.int64)


def brute_force_min_matching(g: BipartiteGraph):
    """Minimum perfect-matching weight over available edges, or None.

    Enumerates every injective map U -> V (vectorized over a cached
    permutation table); practical for n2 <= 8.
    """
    eff = np.where(g.available_mask(), g.weight, _BIG).astype(np.int64)
    perms = _perm_table(g.n2, g.n1)
    costs = eff[np.arange(g.n1)[None, :], perms].sum(axis=1)
    best = int(costs.min())
    if best >= _BIG:
        return None
    return best


def brute_force_min_matching_mate(g: BipartiteGraph):
    """As above but also returns one optimal mate array."""
    eff = np.where(g.available_mask(), g.weight, _BIG).astype(np.int64)
    perms = _perm_table(g.n2, g.n1)
    costs = eff[np.arange(g.n1)[None, :], perms].sum(axis=1)
    idx = int(costs.argmin())
    best = int(costs[idx])
    if best >= _BIG:
        return None, None
    return best, [int(v) for v in perms[idx]]


def augment_reference(eff, alpha, beta, mate_u, mate_v, start_u: int,
                      inf_cutoff: int) -> bool:
    """One shortest-augmenting-path phase on plain Python lists.

    Rematches the free U-vertex ``start_u`` in place and returns True, or
    returns False with every list untouched when no free column is reachable
    at a cost below ``inf_cutoff``. The rules, written out loop by loop:
    distances start at the reduced costs of row ``start_u``; each step
    settles the unsettled column of least distance (lowest index on ties),
    stops at the first free one, and otherwise relaxes every unsettled column
    through the settled column's mate with a strict ``<``. The dual update
    then adds ``mu - dist[j]`` to the mate of each settled column j but the
    last and subtracts it from ``beta[j]`` (``mu`` is the path cost), adds
    ``mu`` to ``alpha[start_u]``, and the path is flipped back to
    ``start_u``.
    """
    n2 = len(beta)
    row = eff[start_u]
    dist = [row[k] - alpha[start_u] - beta[k] for k in range(n2)]
    way = [-1] * n2
    settled = [False] * n2
    order = []
    while True:
        j = -1
        for k in range(n2):
            if not settled[k] and (j == -1 or dist[k] < dist[j]):
                j = k
        if j == -1 or dist[j] >= inf_cutoff:
            return False
        settled[j] = True
        order.append(j)
        if mate_v[j] == -1:
            break
        r = mate_v[j]
        for k in range(n2):
            if not settled[k]:
                cand = dist[j] + eff[r][k] - alpha[r] - beta[k]
                if cand < dist[k]:
                    dist[k] = cand
                    way[k] = j

    mu = dist[order[-1]]
    for j in order[:-1]:
        alpha[mate_v[j]] += mu - dist[j]
        beta[j] -= mu - dist[j]
    alpha[start_u] += mu

    j = order[-1]
    while way[j] != -1:
        r = mate_v[way[j]]
        mate_v[j] = r
        mate_u[r] = j
        j = way[j]
    mate_v[j] = start_u
    mate_u[start_u] = j
    return True


def labeled_partitions(n: int, m: int, ubar: int):
    """Yield every labeled capacity-feasible assignment of n items to m parts."""
    for combo in itertools.product(range(m), repeat=n):
        counts = [0] * m
        ok = True
        for k in combo:
            counts[k] += 1
            if counts[k] > ubar:
                ok = False
                break
        if ok:
            yield combo


def brute_force_partition_min_max(weights, m: int, ubar: int):
    """Minimum achievable max partition sum by full labeled enumeration."""
    best = None
    for combo in labeled_partitions(len(weights), m, ubar):
        sums = [0] * m
        for w, k in zip(weights, combo):
            sums[k] += w
        top = max(sums) if sums else 0
        if best is None or top < best:
            best = top
    return best


def permutation_first_oracle(g: BipartiteGraph, m: int, ubar: int):
    """Exact PMMWM optimum, enumerating matchings before partitions.

    No pruning at all; the independent cross-check for the package's
    branch-and-bound oracle. Only usable for tiny instances.
    """
    eff = np.where(g.available_mask(), g.weight, _BIG).astype(np.int64)
    best = None
    for perm in itertools.permutations(range(g.n2), g.n1):
        ws = [int(eff[u, v]) for u, v in enumerate(perm)]
        if max(ws) >= _BIG:
            continue
        opt = brute_force_partition_min_max(ws, m, ubar)
        if opt is not None and (best is None or opt < best):
            best = opt
    return best


def improving_neighbor_exists(part_of, weights, m: int, ubar: int) -> bool:
    """True if any single relocation or swap from the heaviest partition
    lexicographically lowers the sorted weight vector."""
    n = len(part_of)
    w = [int(x) for x in weights]
    sums = [0] * m
    sizes = [0] * m
    for u in range(n):
        sums[part_of[u]] += w[u]
        sizes[part_of[u]] += 1
    base = tuple(sorted(sums, reverse=True))
    h = sums.index(max(sums))
    h_items = [u for u in range(n) if part_of[u] == h]

    def fitness_after(moves):
        s = list(sums)
        c = list(sizes)
        for u, dst in moves:
            src = part_of[u]
            s[src] -= w[u]
            c[src] -= 1
            s[dst] += w[u]
            c[dst] += 1
        if max(c) > ubar:
            return None
        return tuple(sorted(s, reverse=True))

    for u in h_items:
        for k in range(m):
            if k != h:
                f = fitness_after([(u, k)])
                if f is not None and f < base:
                    return True
    for u in h_items:
        for y in range(n):
            if part_of[y] != h:
                f = fitness_after([(u, part_of[y]), (y, h)])
                if f is not None and f < base:
                    return True
    return False


def mls_reference(part_of, weights, m: int, ubar: int, levels=(1, 2)):
    """Multilevel local search by its rules alone; returns (part, fitness).

    Every candidate move is judged by rebuilding and sorting the whole
    weight vector, with no shortcut. The descent works on the heaviest
    partition h (lowest index on ties) and restarts at the first level after
    each move; it stops when no level in ``levels`` moves.
      1: relocate one item of h to a partition k != h with room; the move
         with the smallest sorted vector wins, ties to the first in
         (item, k) order.
      2: swap one item x of h with one item y outside h; the first
         improving (x, y) in ascending order wins.
    """
    part = list(part_of)
    w = [int(x) for x in weights]
    n = len(part)
    sums = [0] * m
    sizes = [0] * m
    for u in range(n):
        sums[part[u]] += w[u]
        sizes[part[u]] += 1

    def fitness(s):
        return tuple(sorted(s, reverse=True))

    def moved_sums(moves):
        s = list(sums)
        for u, dst in moves:
            s[part[u]] -= w[u]
            s[dst] += w[u]
        return s

    def apply(moves):
        for u, dst in moves:
            sums[part[u]] -= w[u]
            sizes[part[u]] -= 1
            sums[dst] += w[u]
            sizes[dst] += 1
        for u, dst in moves:
            part[u] = dst

    def relocate(h, h_items, current):
        best = None
        for x in h_items:
            for k in range(m):
                if k == h or sizes[k] >= ubar:
                    continue
                f = fitness(moved_sums([(x, k)]))
                if f < current and (best is None or f < best[0]):
                    best = (f, [(x, k)])
        if best is None:
            return False
        apply(best[1])
        return True

    def swap(h, h_items, current):
        for x in h_items:
            for y in range(n):
                if part[y] == h:
                    continue
                moves = [(x, part[y]), (y, h)]
                if fitness(moved_sums(moves)) < current:
                    apply(moves)
                    return True
        return False

    rules = {1: relocate, 2: swap}
    if n and m > 1:
        while True:
            h = sums.index(max(sums))
            h_items = [u for u in range(n) if part[u] == h]
            current = fitness(sums)
            if not any(rules[lv](h, h_items, current) for lv in levels):
                break
    return part, fitness(sums)


def _part_sums(part, w, m: int):
    sums = np.zeros(m, dtype=np.int64)
    np.add.at(sums, part, w)
    return sums


def gpx_reference(a_part, b_part, w, m: int, ubar: int):
    """Greedy partition crossover, one numpy pass over the free items per
    round; returns (part, fitness).

    m rounds with alternating donors (``a_part`` first): round r copies the
    donor partition, restricted to the still-unassigned items, whose
    restricted weight x minimizes |x * (m - r) - remaining total| (lowest
    index on ties; Python ints, so no overflow) into child partition r.
    Leftovers go heaviest-first (stable) to the lightest partition with room
    (lowest index on ties). Fitness is the child's sorted sums, recomputed
    from scratch.
    """
    child = np.full(len(w), -1, dtype=np.int64)
    free = np.ones(len(w), dtype=bool)
    remaining_total = int(w.sum())
    for r in range(m):
        donor = (a_part, b_part)[r % 2]
        rounds_left = m - r
        restricted = _part_sums(donor[free], w[free], m).tolist()
        best_k = min(range(m),
                     key=lambda k: abs(restricted[k] * rounds_left - remaining_total))
        taken = free & (donor == best_k)
        child[taken] = r
        free[taken] = False
        remaining_total -= int(w[taken].sum())

    placed = ~free
    sums = _part_sums(child[placed], w[placed], m).tolist()
    sizes = np.bincount(child[placed], minlength=m).tolist()
    leftovers = np.flatnonzero(free)
    for u in leftovers[np.argsort(-w[leftovers], kind="stable")].tolist():
        best = -1
        for k in range(m):
            if sizes[k] < ubar and (best == -1 or sums[k] < sums[best]):
                best = k
        child[u] = best
        sums[best] += int(w[u])
        sizes[best] += 1
    return child, tuple(sorted(_part_sums(child, w, m).tolist(), reverse=True))


def _is_ascii_uint(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _reference_weight(token: str, fault) -> tuple[int, int]:
    """A weight token as (value scaled by 10**digits, digits); ``fault(text)``
    is the ParseError of a bad one."""
    text = token[1:] if token.startswith("-") else token
    int_part, _, frac = text.partition(".")
    if not (int_part or frac) or not all(
            part == "" or _is_ascii_uint(part) for part in (int_part, frac)):
        raise fault(f"bad weight {token!r}")
    if token.startswith("-"):
        raise fault(f"negative weight {token!r}")
    frac = frac.rstrip("0")
    if len(frac) > 6:
        raise fault(f"more than 6 fractional digits in {token!r}")
    return int(int_part or "0") * 10 ** len(frac) + int(frac or "0"), len(frac)


def load_instance_reference(path: str) -> BipartiteGraph:
    """Line-by-line instance parser, the differential oracle of ``load_instance``.

    Reads the file as text with universal newlines, splits each line on
    ASCII blanks and checks every token with Python's own ``str`` methods and
    ``int``. Faults are raised in file order: encoding, header, each edge
    line, then scaled weights and duplicate edges, each as
    ``{path}: line N: ...``; a byte that is not UTF-8 also names its column
    (in characters, from 1). A path that cannot be read raises its OSError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).readlines()
        if not before or before[-1].endswith("\n"):
            before.append("")
        raise ParseError(f"{path}: line {len(before)}, column {len(before[-1]) + 1}: "
                         f"byte {data[exc.start]:#04x} is not UTF-8") from None

    def fault(lineno: int, message: str) -> ParseError:
        return ParseError(f"{path}: line {lineno}: {message}")

    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0]
        for blank in "\t\v\f\n":
            line = line.replace(blank, " ")
        toks = [tok for tok in line.split(" ") if tok]
        if toks:
            rows.append((lineno, toks))

    if not rows:
        raise fault(1, "empty instance file")
    lineno, header = rows[0]
    if len(header) != 4:
        raise fault(lineno, "header must be 'n1 n2 m ubar'")
    if not all(_is_ascii_uint(tok) for tok in header):
        raise fault(lineno, "header must be integers")
    n1, n2, m, ubar = (int(tok) for tok in header)
    if n1 < 1 or n2 < n1:
        raise fault(lineno, "need 1 <= n1 <= n2")
    if m < 1 or ubar < 1:
        raise fault(lineno, "need m >= 1 and ubar >= 1")
    if n1 * n2 > MAX_CELLS:
        raise fault(lineno, f"n1 * n2 = {n1 * n2} is more than {MAX_CELLS} cells")

    edges = []
    max_digits = 0
    for lineno, toks in rows[1:]:
        if len(toks) != 3:
            raise fault(lineno, "edge line must be 'u v w'")
        if not (_is_ascii_uint(toks[0]) and _is_ascii_uint(toks[1])):
            raise fault(lineno, "bad vertex index")
        u, v = int(toks[0]), int(toks[1])
        if not (u < n1 and v < n2):
            raise fault(lineno, f"edge ({u}, {v}) out of range")
        value, digits = _reference_weight(toks[2], lambda text: fault(lineno, text))
        max_digits = max(max_digits, digits)
        edges.append((lineno, u, v, toks[2], value, digits))

    weight = np.full((n1, n2), ABSENT, dtype=np.int64)
    for lineno, u, v, token, value, digits in edges:
        scaled = value * 10 ** (max_digits - digits)
        # The BipartiteGraph guards: each weight at most MAX_WEIGHT, n1 times
        # the largest at most MAX_TOTAL_WEIGHT.
        if scaled > MAX_WEIGHT or n1 * scaled > MAX_TOTAL_WEIGHT:
            limit = min(MAX_WEIGHT, MAX_TOTAL_WEIGHT // n1)
            raise fault(lineno, f"weight {token!r} is more than {limit} when scaled")
        if weight[u, v] != ABSENT:
            raise fault(lineno, f"duplicate edge ({u}, {v})")
        weight[u, v] = scaled

    g = BipartiteGraph(n1, n2, m, ubar, weight, weight_scale=10 ** max_digits)
    if m * ubar < n1:
        raise InfeasibleInstance(f"{path}: m*ubar = {m * ubar} < n1 = {n1}")
    if not g.has_perfect_matching():
        raise InfeasibleInstance(f"{path}: no perfect matching on U")
    return g
