"""Problem instance representation, feasibility checks and objective evaluation.

A problem instance is a weighted bipartite graph G(U, V, E) with |U| = n1,
|V| = n2, n1 <= n2, together with a partition count ``m`` and a per-partition
capacity ``ubar``. Weights are stored in a dense n1 x n2 integer table; absent
edges are marked with the ``ABSENT`` sentinel. Weights given as decimals in
instance files (at most 6 fractional digits) are scaled to integers at load so
that all downstream arithmetic is exact; ``weight_scale`` records the factor.
Every file reader decodes by ``read_utf8`` and starts each fault with path and line.

An edge is *available* iff it is present and not banned. Ban flags are the
only mutable part of a graph after load; they are driven by the solver's
graph-modification step.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InfeasibleInstance, ParseError
from .numpart import part_sums

ABSENT = -1

# Matcher potentials can grow to ~n1 * max_weight; both guards keep all
# reduced-cost arithmetic far below the matcher's 2**61 infinity sentinel.
MAX_WEIGHT = 1 << 52
MAX_TOTAL_WEIGHT = 1 << 55
# Largest n1 * n2 an instance header may declare: a 16 GiB weight table.
MAX_CELLS = 1 << 31
# Bytes the bulk parse reads at a time. Its arrays other than the edges it
# keeps (12 bytes each) and the table are a few times this size; of 64 KiB,
# 256 KiB and 1 MiB, 256 KiB loaded the benchmark's files fastest.
_BLOCK_BYTES = 1 << 18

# The instance grammar (see load_instance): in bytes for the bulk parse, which
# takes integer weights only (no "."), and in text for the line-by-line parse.
_GRAMMAR_BYTES = b"0123456789 \t\v\f\r\n"
_COMMENT = re.compile(rb"#[^\r\n]*")
_HEADER = re.compile(rb"\s*([0-9]+)\s+([0-9]+)\s+([0-9]+)\s+([0-9]+)(?:\s|$)")
_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_TOKEN = re.compile(r"[^ \t\v\f]+")
_UINT = re.compile(r"[0-9]+")
_WEIGHT = re.compile(r"([0-9]*)(?:\.([0-9]*))?")


class BipartiteGraph:
    """Dense weighted bipartite graph with ban flags.

    Attributes:
        n1, n2: vertex counts (n1 <= n2).
        m, ubar: partition count and capacity, as declared by the instance.
        weight: (n1, n2) int64 array; ABSENT (-1) marks missing edges.
        banned: (n1, n2) bool array, all False initially.
        weight_scale: 10**d where d is the max fractional digits seen at load.
    """

    def __init__(self, n1: int, n2: int, m: int, ubar: int,
                 weight: np.ndarray, weight_scale: int = 1):
        if n1 < 1 or n2 < n1:
            raise ParseError(f"need 1 <= n1 <= n2, got n1={n1} n2={n2}")
        if m < 1 or ubar < 1:
            raise ParseError(f"need m >= 1 and ubar >= 1, got m={m} ubar={ubar}")
        if weight.shape != (n1, n2):
            raise ParseError(f"weight table shape {weight.shape} != ({n1}, {n2})")
        self.n1 = n1
        self.n2 = n2
        self.m = m
        self.ubar = ubar
        self.weight = np.asarray(weight, dtype=np.int64)  # no copy of an int64 table
        self.banned = np.zeros((n1, n2), dtype=bool)
        self.weight_scale = weight_scale
        # ABSENT (-1) is below every present weight: no gather of present cells.
        if int(self.weight.min()) < ABSENT:
            raise ParseError("negative edge weight")
        max_w = int(self.weight.max())
        if max_w > MAX_WEIGHT or n1 * max_w > MAX_TOTAL_WEIGHT:
            raise ParseError(f"scaled weights too large: max {max_w} with n1={n1}")

    @classmethod
    def from_edges(cls, n1: int, n2: int, m: int, ubar: int,
                   edges: list[tuple[int, int, int]],
                   weight_scale: int = 1) -> "BipartiteGraph":
        """Build a graph from (u, v, w) triples; unlisted pairs are absent."""
        weight = np.full((n1, n2), ABSENT, dtype=np.int64)
        for u, v, w in edges:
            if not (0 <= u < n1 and 0 <= v < n2):
                raise ParseError(f"edge ({u}, {v}) out of range")
            if w < 0:
                raise ParseError(f"edge ({u}, {v}) has negative weight {w}")
            if weight[u, v] != ABSENT:
                raise ParseError(f"duplicate edge ({u}, {v})")
            weight[u, v] = w
        return cls(n1, n2, m, ubar, weight, weight_scale)

    def has_edge(self, u: int, v: int) -> bool:
        return self.weight[u, v] != ABSENT

    def is_available(self, u: int, v: int) -> bool:
        return self.weight[u, v] != ABSENT and not self.banned[u, v]

    def available_mask(self) -> np.ndarray:
        return (self.weight != ABSENT) & ~self.banned

    def ban_edge(self, u: int, v: int) -> None:
        if self.weight[u, v] == ABSENT:
            raise ValueError(f"cannot ban absent edge ({u}, {v})")
        self.banned[u, v] = True

    def unban_edge(self, u: int, v: int) -> None:
        self.banned[u, v] = False

    def edge_count(self) -> int:
        return int((self.weight != ABSENT).sum())

    def copy(self) -> "BipartiteGraph":
        g = BipartiteGraph(self.n1, self.n2, self.m, self.ubar,
                           self.weight.copy(), self.weight_scale)
        g.banned = self.banned.copy()
        return g

    def display_value(self, scaled: int):
        """Convert an internal scaled weight back to file units."""
        if self.weight_scale == 1:
            return int(scaled)
        return scaled / self.weight_scale

    def has_perfect_matching(self) -> bool:
        """True iff the available subgraph admits a matching covering U.

        Rows are matched one at a time, in order. A row first takes its
        first free available column, one vector operation per row; this
        greedy level matches almost every row of a benchmark instance.
        A row it leaves unmatched starts a breadth-first search over
        alternating paths (Kuhn's augmenting paths, searched in layers as in
        Hopcroft and Karp), one vector step per layer: the rows matched to
        the layer's columns reach the next layer's unseen columns, and each
        new column records the first column of the layer whose row reached
        it. The first layer holding a free column ends an augmenting path,
        which is flipped back to the row. A layer with no new columns proves
        infeasibility: every seen column is matched to a reached row other
        than the start, and no reached row has an available column outside
        them, so the reached rows have fewer available columns than rows
        (Hall's condition fails).
        """
        avail = self.available_mask()
        free = np.ones(self.n2, dtype=bool)
        row = np.empty(self.n2, dtype=bool)
        mate_v = np.full(self.n2, -1, dtype=np.intp)
        pred = np.empty(self.n2, dtype=np.intp)
        for u in range(self.n1):
            np.logical_and(avail[u], free, out=row)
            v = int(row.argmax())
            if not row[v]:
                seen = avail[u].copy()
                cols = np.flatnonzero(seen)
                pred[cols] = -1
                while not (hit := free[cols]).any():
                    if not cols.size:
                        return False
                    reach = avail[mate_v[cols]] & ~seen
                    new = np.flatnonzero(reach.any(axis=0))
                    pred[new] = cols[reach[:, new].argmax(axis=0)]
                    seen[new] = True
                    cols = new
                v = int(cols[hit.argmax()])
                free[v] = False
                while pred[v] >= 0:
                    mate_v[v] = mate_v[pred[v]]
                    v = int(pred[v])
            free[v] = False
            mate_v[v] = u
        return True


@dataclass
class PartitionAssignment:
    """Mapping of U-vertices to partitions {0..m-1} under capacity ubar."""

    m: int
    ubar: int
    part_of: list[int]

    def sizes(self) -> list[int]:
        return np.bincount(self.part_of, minlength=self.m).tolist()

    def copy(self) -> "PartitionAssignment":
        return PartitionAssignment(self.m, self.ubar, list(self.part_of))


@dataclass
class Solution:
    """A matching plus a partition; ``objective`` is the max partition weight."""

    mate: list[int]
    partition: PartitionAssignment
    objective: Optional[int] = None


@dataclass
class Violation:
    """First violated constraint of a candidate solution.

    ``constraint`` is the constraint number (1: each u matched on an
    available edge, 2: each v used at most once, 3: each u in exactly one
    partition, 4: partition size <= ubar); ``subject`` is the offending
    vertex or partition index (0-based).
    """

    constraint: int
    subject: int
    message: str


def partition_weights(g: BipartiteGraph, sol: Solution) -> list[int]:
    """Per-partition matched weight, indexed by partition (scaled units)."""
    w = g.weight[np.arange(g.n1), sol.mate]
    return part_sums(sol.partition.part_of, w, sol.partition.m).tolist()


def evaluate_objective(g: BipartiteGraph, sol: Solution) -> int:
    """Max partition weight; also written into ``sol.objective``."""
    sol.objective = max(partition_weights(g, sol))
    return sol.objective


def validate_solution(g: BipartiteGraph, sol: Solution) -> Optional[Violation]:
    """Return None if the solution is feasible, else the first violation."""
    mate, pa = sol.mate, sol.partition
    if len(mate) != g.n1:
        return Violation(1, -1, f"mate has length {len(mate)}, expected {g.n1}")
    for u in range(g.n1):
        v = mate[u]
        if not (0 <= v < g.n2) or not g.is_available(u, v):
            return Violation(1, u, f"vertex {u} not matched on an available edge")
    used: dict[int, int] = {}
    for u in range(g.n1):
        v = mate[u]
        if v in used:
            return Violation(2, v, f"vertex {v} matched to both {used[v]} and {u}")
        used[v] = u
    if len(pa.part_of) != g.n1:
        return Violation(3, -1, f"part_of has length {len(pa.part_of)}, expected {g.n1}")
    for u in range(g.n1):
        if not (0 <= pa.part_of[u] < pa.m):
            return Violation(3, u, f"vertex {u} has partition {pa.part_of[u]}")
    for k, size in enumerate(pa.sizes()):
        if size > pa.ubar:
            return Violation(4, k, f"partition {k} holds {size} > ubar={pa.ubar}")
    return None


def _fault_at(path: str, before: str, message: str) -> ParseError:
    """``message`` at the end of ``before``, the text of ``path`` up to a fault."""
    lines = _LINE_BREAK.split(before)
    return ParseError(f"{path}: line {len(lines)}, column {len(lines[-1]) + 1}: {message}")


def read_utf8(path: str, data: bytes | None = None) -> str:
    """The text of file ``path`` (of its bytes ``data`` if already read): the
    only UTF-8 decode of file bytes. LF, CRLF and CR each end a line."""
    data = Path(path).read_bytes() if data is None else data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _fault_at(path, data[:exc.start].decode("utf-8"),
                        f"byte {data[exc.start]:#04x} is not UTF-8") from None


def _line_blocks(stream):
    """The bytes of binary ``stream``, read ``_BLOCK_BYTES`` at a time and
    yielded in pieces that each end at a line break, the last one excepted.

    Each read is cut after its last ``\n`` or ``\r``; the rest starts the next
    piece. A ``\r\n`` cut between its two bytes only adds an empty line. A
    read with no line break is held whole, so a line longer than a block is
    joined once, when its break or the end of the stream arrives.
    """
    pieces: list[bytes | memoryview] = []
    while chunk := stream.read(_BLOCK_BYTES):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if not cut:
            pieces.append(chunk)
            continue
        pieces.append(memoryview(chunk)[:cut])
        yield b"".join(pieces)
        pieces = [chunk[cut:]]
    if tail := b"".join(pieces):
        yield tail


def _parse_blocks(stream):
    """(n1, n2, m, ubar, weight, 1) of a valid ASCII integer-weight file read
    from binary ``stream``, else None.

    The fast path for the files ``instgen`` writes. It never raises: a file
    with a non-ASCII byte, a decimal weight or any fault is declined and left
    to ``_parse_lines``. The file is read in blocks cut at line breaks (see
    ``_line_blocks``), so no line and no comment spans two blocks, and each
    block gets every check on its own arrays: ASCII only, comments stripped,
    grammar bytes only, then tokens per line (4 on the first line holding
    tokens, the header, and 3 on every later line), the header as exact ints
    within ``MAX_CELLS``, the ``np.fromstring`` token count, and u, v and w
    in range. ``np.fromstring`` saturates oversized integers instead of
    failing, which the range checks catch. A block keeps its edges as an
    int32 flat index ``u * n2 + v`` (below ``MAX_CELLS`` = 2**31) and an int64
    weight: 12 bytes per edge. The n1 x n2 table is allocated only once the
    last block has passed, so a file that declares a huge table but fails
    later costs no more than its own edges; it is then filled block by block,
    each block's arrays freed as it is placed, and checked for duplicates.
    """
    header = None
    flats: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for block in _line_blocks(stream):
        if not block.isascii():
            return None
        body = _COMMENT.sub(b"", block) if b"#" in block else block
        del block
        if body.translate(None, _GRAMMAR_BYTES):
            return None
        raw = np.frombuffer(body, dtype=np.uint8)
        # Tokens are runs of digits; every other byte left is blank.
        token = raw > ord(" ")
        if not token.any():
            continue  # blank and comment lines only
        starts = np.empty(len(raw), dtype=bool)
        starts[:1] = token[:1]
        np.greater(token[1:], token[:-1], out=starts[1:])
        del token
        newline = raw == ord("\n")
        newline |= raw == ord("\r")
        line_heads = np.flatnonzero(newline[:-1]) + 1
        del newline, raw
        # Tokens per line, summed in uint8: a wider sum would first copy the
        # whole mask at that width. A count that wraps past 255 only lowers the
        # total, so the token-count check after np.fromstring declines the file.
        per_line = np.add.reduceat(starts.view(np.uint8), np.concatenate(([0], line_heads)),
                                   dtype=np.uint8)
        del starts, line_heads
        per_line = per_line[per_line > 0]
        lead = 0
        if header is None:
            if len(per_line) == 0 or per_line[0] != 4:
                return None
            match = _HEADER.match(body)
            if match is None:
                return None
            header = n1, n2, m, ubar = tuple(int(x) for x in match.groups())
            del match  # a match holds on to ``body``
            if n1 < 1 or n2 < n1 or m < 1 or ubar < 1 or n1 * n2 > MAX_CELLS:
                return None
            limit = min(MAX_WEIGHT, MAX_TOTAL_WEIGHT // n1)
            lead = 4
        if (per_line[1 if lead else 0:] != 3).any():
            return None

        try:
            values = np.fromstring(body, dtype=np.int64, sep=" ")
        except ValueError:
            return None
        del body
        if len(values) != int(per_line.sum(dtype=np.int64)):
            return None
        u, v, w = values[lead:].reshape(-1, 3).T
        if len(w) and (u.max() >= n1 or v.max() >= n2 or w.max() > limit):
            return None
        flats.append((u * n2 + v).astype(np.int32))
        weights.append(w.copy())
        del values, u, v, w
    if header is None:
        return None

    edges = sum(len(w) for w in weights)
    weight = np.full((n1, n2), ABSENT, dtype=np.int64)
    cells = weight.reshape(-1)
    while flats:
        cells[flats.pop()] = weights.pop()
    if np.count_nonzero(weight != ABSENT) != edges:
        return None  # a duplicate edge overwrote another
    return n1, n2, m, ubar, weight, 1


def _parse_lines(data: bytes, path: str):
    """(n1, n2, m, ubar, weight, weight_scale) of a valid file, else the
    ParseError of its first fault, as ``{path}: line N: ...``.

    Walks the file line by line in the order the faults are reported:
    encoding, header, each edge line, then scaled weights and duplicates in
    file order. A weight is read as its value times 10**d, d its fraction
    digits; every weight is then scaled to the file's largest d, and
    ``weight_scale`` is 10 to that power.
    """
    def fault(lineno: int, message: str) -> ParseError:
        return ParseError(f"{path}: line {lineno}: {message}")

    text = read_utf8(path, data)
    # (line number, tokens) of each line holding a token, one line at a time:
    # a list of every line's tokens would be most of the peak memory.
    rows = ((lineno, toks) for lineno, line in enumerate(_LINE_BREAK.split(text), start=1)
            if (toks := _TOKEN.findall(line.split("#", 1)[0])))
    lineno, header = next(rows, (1, None))
    if header is None:
        raise fault(lineno, "empty instance file")
    if len(header) != 4:
        raise fault(lineno, "header must be 'n1 n2 m ubar'")
    if not all(_UINT.fullmatch(tok) for tok in header):
        raise fault(lineno, "header must be integers")
    n1, n2, m, ubar = (int(tok) for tok in header)
    if n1 < 1 or n2 < n1:
        raise fault(lineno, "need 1 <= n1 <= n2")
    if m < 1 or ubar < 1:
        raise fault(lineno, "need m >= 1 and ubar >= 1")
    if n1 * n2 > MAX_CELLS:
        raise fault(lineno, f"n1 * n2 = {n1 * n2} is more than {MAX_CELLS} cells")

    edges: list[tuple[int, int, int, str, int, int]] = []
    for lineno, toks in rows:
        if len(toks) != 3:
            raise fault(lineno, "edge line must be 'u v w'")
        if not (_UINT.fullmatch(toks[0]) and _UINT.fullmatch(toks[1])):
            raise fault(lineno, "bad vertex index")
        u, v, tok = int(toks[0]), int(toks[1]), toks[2]
        if not (u < n1 and v < n2):
            raise fault(lineno, f"edge ({u}, {v}) out of range")
        negative = tok.startswith("-")
        match = _WEIGHT.fullmatch(tok[1:] if negative else tok)
        if match is None or not (match[1] or match[2]):
            raise fault(lineno, f"bad weight {tok!r}")
        if negative:
            raise fault(lineno, f"negative weight {tok!r}")
        frac = (match[2] or "").rstrip("0")
        if len(frac) > 6:
            raise fault(lineno, f"more than 6 fractional digits in {tok!r}")
        edges.append((lineno, u, v, tok, int((match[1] or "0") + frac), len(frac)))

    digits = max((d for *_, d in edges), default=0)
    limit = min(MAX_WEIGHT, MAX_TOTAL_WEIGHT // n1)  # the constructor's two guards
    cells: dict[tuple[int, int], int] = {}
    for lineno, u, v, tok, value, d in edges:
        scaled = value * 10 ** (digits - d)
        if scaled > limit:
            raise fault(lineno, f"weight {tok!r} is more than {limit} when scaled")
        if (u, v) in cells:
            raise fault(lineno, f"duplicate edge ({u}, {v})")
        cells[u, v] = scaled
    weight = np.full((n1, n2), ABSENT, dtype=np.int64)
    for (u, v), scaled in cells.items():
        weight[u, v] = scaled
    return n1, n2, m, ubar, weight, 10 ** digits


def load_instance(path: str) -> BipartiteGraph:
    """Load an instance file and verify perfect-matching feasibility.

    Format (UTF-8 text; '#' starts a comment that runs to the end of the line):
        line 1: ``n1 n2 m ubar``
        then one edge per line: ``u v w`` (0-based, w >= 0, decimals allowed).
    Unlisted pairs are absent. Header values and indices are ASCII digits;
    a weight is ASCII digits with an optional fraction of at most 6 digits
    (trailing zeros do not count). Tokens are separated by ASCII blanks.

    An ASCII file with integer weights, as ``instgen`` writes, is parsed in
    bulk by ``_parse_blocks``: the file is streamed in fixed-size blocks, each
    converted by one ``np.fromstring`` pass and checked with array operations,
    and the weight table is filled once the last block has passed. Its peak
    is about 2.5x the table on a dense file. Every other file (a decimal
    weight, a non-ASCII byte or any fault) is read whole and goes to
    ``_parse_lines``, which walks it line by line and returns its table or
    raises the ParseError of its first fault, as ``{path}: line N: ...``;
    that path is several times slower. An unreadable path raises its OSError.
    """
    with open(path, "rb") as fh:
        parsed = _parse_blocks(fh)
    if parsed is None:
        parsed = _parse_lines(Path(path).read_bytes(), path)
    n1, n2, m, ubar, weight, scale = parsed
    g = BipartiteGraph(n1, n2, m, ubar, weight, weight_scale=scale)
    if m * ubar < n1:
        raise InfeasibleInstance(f"{path}: m*ubar = {m * ubar} < n1 = {n1}")
    if not g.has_perfect_matching():
        raise InfeasibleInstance(f"{path}: no perfect matching on U")
    return g


def save_instance(g: BipartiteGraph, path: str,
                  header_comments: list[str] | None = None) -> None:
    """Write a graph in the instance file format (deterministic row-major
    order), one line at a time: no list of every line is held."""
    digits = len(str(g.weight_scale)) - 1
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        fh.write(f"{g.n1} {g.n2} {g.m} {g.ubar}\n")
        for u in range(g.n1):
            row = g.weight[u]
            for v in np.flatnonzero(row != ABSENT):
                w = int(row[v])
                if g.weight_scale == 1:
                    tok = str(w)
                else:
                    frac = w % g.weight_scale
                    tok = f"{w // g.weight_scale}.{frac:0{digits}d}".rstrip("0").rstrip(".")
                fh.write(f"{u} {int(v)} {tok}\n")


def solution_to_dict(g: BipartiteGraph, sol: Solution, seed: int,
                     iterations: int, wall_time_ms: int) -> dict:
    """Solution-file payload; weights reported in original (descaled) units."""
    weights = partition_weights(g, sol)
    return {
        "objective": g.display_value(max(weights)),
        "mate": list(int(v) for v in sol.mate),
        "part_of": list(int(k) for k in sol.partition.part_of),
        "partition_weights": [g.display_value(w) for w in weights],
        "seed": seed,
        "iterations": iterations,
        "wall_time_ms": wall_time_ms,
    }


def save_json(path: str, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(path: str) -> dict:
    """A solution file's payload; a JSON fault is named as ``read_utf8`` names a bad byte."""
    text = read_utf8(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fault_at(path, text[:exc.pos], exc.msg) from exc
