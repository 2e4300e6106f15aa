import io
import os
import random
import tracemalloc

import numpy as np
import pytest

from pmmwm import graph
from pmmwm.errors import InfeasibleInstance, ParseError
from pmmwm.graph import (
    ABSENT,
    MAX_TOTAL_WEIGHT,
    MAX_WEIGHT,
    BipartiteGraph,
    PartitionAssignment,
    Solution,
    _parse_blocks,
    evaluate_objective,
    load_instance,
    load_solution,
    partition_weights,
    save_instance,
    validate_solution,
)
from pmmwm.instgen import InstanceSpec, write_instance

from helpers import (
    example_base_solution,
    example_rematched_solution,
    example_relocated_solution,
    make_example_graph,
    seeded_graph,
)
from oracles import load_instance_reference


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(params=[graph._BLOCK_BYTES, 7], ids=["default-block", "7-byte-block"])
def block_bytes(request, monkeypatch):
    """The bulk parse's block size: the default, and one that cuts every file
    into many blocks, most lines across a block boundary."""
    monkeypatch.setattr(graph, "_BLOCK_BYTES", request.param)
    return request.param


class TestLoadInstance:
    def test_small_complete_instance(self, tmp_path):
        path = write(tmp_path, "2 2 1 2\n0 0 1\n0 1 2\n1 0 2\n1 1 1\n")
        g = load_instance(path)
        assert (g.n1, g.n2, g.m, g.ubar) == (2, 2, 1, 2)
        assert g.weight.tolist() == [[1, 2], [2, 1]]
        assert not g.banned.any()

    def test_capacity_infeasible_header(self, tmp_path):
        path = write(tmp_path, "3 3 1 2\n0 0 1\n1 1 1\n2 2 1\n")
        with pytest.raises(InfeasibleInstance):
            load_instance(path)

    def test_example_graph_file_round_trip(self, tmp_path):
        g = make_example_graph()
        path = str(tmp_path / "example.txt")
        save_instance(g, path)
        g2 = load_instance(path)
        assert g2.n1 == 6 and g2.m == 3 and g2.ubar == 3
        assert (g2.weight == g.weight).all()

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "# a comment\n\n2 2 2 1\n0 0 1  # trailing\n0 1 2\n1 0 3\n1 1 4\n")
        g = load_instance(path)
        assert g.weight[1, 1] == 4

    def test_absent_edges(self, tmp_path):
        path = write(tmp_path, "2 3 1 2\n0 0 1\n1 1 1\n")
        g = load_instance(path)
        assert g.weight[0, 1] == ABSENT
        assert not g.has_edge(1, 2)
        assert g.edge_count() == 2

    def test_decimal_weights_scaled(self, tmp_path):
        path = write(tmp_path, "2 2 1 2\n0 0 0.5\n0 1 1.25\n1 0 2\n1 1 0.75\n")
        g = load_instance(path)
        assert g.weight_scale == 100
        assert g.weight.tolist() == [[50, 125], [200, 75]]
        assert g.display_value(125) == 1.25

    def test_too_many_fraction_digits(self, tmp_path):
        path = write(tmp_path, "1 1 1 1\n0 0 0.1234567\n")
        with pytest.raises(ParseError):
            load_instance(path)

    @pytest.mark.parametrize("body", [
        "2 2 1\n",                           # short header
        "2 1 1 2\n",                         # n2 < n1
        "2 2 1 2\n0 0 1\n0 0 2\n",           # duplicate edge
        "2 2 1 2\n0 5 1\n",                  # index out of range
        "2 2 1 2\n0 0 -3\n",                 # negative weight
        "2 2 1 2\n0 0 x\n",                  # junk weight
        "1 1 1 1\n0 0 \u0663\n",             # non-ASCII digit, though int() reads 3
    ])
    def test_parse_errors(self, tmp_path, body):
        with pytest.raises(ParseError):
            load_instance(write(tmp_path, body))

    def test_no_perfect_matching_rejected(self, tmp_path):
        # both U-vertices can only reach v0
        path = write(tmp_path, "2 2 2 1\n0 0 1\n1 0 1\n")
        with pytest.raises(InfeasibleInstance):
            load_instance(path)

    def test_decimal_round_trip(self, tmp_path):
        path = write(tmp_path, "2 2 1 2\n0 0 0.5\n0 1 1.25\n1 0 2\n1 1 0.75\n")
        g = load_instance(path)
        out = str(tmp_path / "copy.txt")
        save_instance(g, out)
        g2 = load_instance(out)
        assert g2.weight_scale == g.weight_scale
        assert (g2.weight == g.weight).all()

    @pytest.mark.parametrize("body, message", [
        (b"1 1 1 1\n0 0 100000000000000000000\n",
         "line 2: weight '100000000000000000000' is more than 4503599627370496 when scaled"),
        (b"2 2 1 2\n0 0 0.000001\n1 1 10000000000000\n",
         "line 3: weight '10000000000000' is more than 4503599627370496 when scaled"),
        (b"1 1 1 1\n100000000000000000000 0 1\n",
         "line 2: edge (100000000000000000000, 0) out of range"),
        (b"100000000000000000000 100000000000000000000 1 1\n0 0 1\n",
         "line 1: n1 * n2 = 10000000000000000000000000000000000000000 is more than "
         "2147483648 cells"),
        (b"1 1 1 1\r\n0 0 \xff\n", "line 2, column 5: byte 0xff is not UTF-8"),
    ], ids=["weight", "scaled-decimal", "index", "header", "utf-8"])
    def test_oversized_and_undecodable_tokens(self, tmp_path, body, message):
        path = tmp_path / "inst.txt"
        path.write_bytes(body)
        with pytest.raises(ParseError) as exc:
            load_instance(str(path))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("n1, cell, message", [
        (2, -2, "negative edge weight"),
        (2, MAX_WEIGHT + 1, f"scaled weights too large: max {MAX_WEIGHT + 1} with n1=2"),
        (9, MAX_WEIGHT, f"scaled weights too large: max {MAX_WEIGHT} with n1=9"),  # > 2**55
        (2, ABSENT, None),  # no edge at all: nothing to reject
    ], ids=["negative", "max-weight", "total-weight", "all-absent"])
    def test_constructor_weight_checks(self, n1, cell, message):
        weight = np.full((n1, n1), ABSENT, dtype=np.int64)
        weight[0, 1] = cell
        if message is None:
            assert BipartiteGraph(n1, n1, 1, n1, weight).edge_count() == 0
            return
        with pytest.raises(ParseError) as exc:
            BipartiteGraph(n1, n1, 1, n1, weight)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n1, n2, m, ubar, shape, message", [
        (0, 2, 1, 1, (0, 2), "need 1 <= n1 <= n2, got n1=0 n2=2"),
        (3, 2, 1, 3, (3, 2), "need 1 <= n1 <= n2, got n1=3 n2=2"),
        (2, 2, 0, 2, (2, 2), "need m >= 1 and ubar >= 1, got m=0 ubar=2"),
        (2, 2, 1, 0, (2, 2), "need m >= 1 and ubar >= 1, got m=1 ubar=0"),
        (2, 2, 1, 2, (2, 3), "weight table shape (2, 3) != (2, 2)"),
    ], ids=["n1-zero", "n2-below-n1", "m-zero", "ubar-zero", "shape"])
    def test_constructor_size_checks(self, n1, n2, m, ubar, shape, message):
        with pytest.raises(ParseError) as exc:
            BipartiteGraph(n1, n2, m, ubar, np.full(shape, ABSENT, dtype=np.int64))
        assert str(exc.value) == message

    @pytest.mark.parametrize("edge, message", [
        ((2, 0, 1), "edge (2, 0) out of range"),
        ((0, -1, 1), "edge (0, -1) out of range"),
        ((0, 1, -3), "edge (0, 1) has negative weight -3"),
        ((0, 0, 4), "duplicate edge (0, 0)"),
    ], ids=["u-out-of-range", "v-out-of-range", "negative", "duplicate"])
    def test_from_edges_checks(self, edge, message):
        with pytest.raises(ParseError) as exc:
            BipartiteGraph.from_edges(2, 2, 1, 2, [(0, 0, 5), edge])
        assert str(exc.value) == message

    def test_line_of_259_tokens(self, tmp_path):
        # 259 tokens wrap the bulk parse's uint8 per-line count round to 3.
        path = write(tmp_path, "1 1 1 1\n" + " ".join(["0"] * 259) + "\n")
        with pytest.raises(ParseError, match="line 2: edge line must be 'u v w'$"):
            load_instance(path)

    def test_dense_load_peak_memory(self, tmp_path):
        # A dense 300x300 file of 1.0 MB, as the shipped benchmark writes them.
        # Parsed line by line it peaked at 54x the file size (54.5 MB); the
        # bulk parse measures 2.1x.
        path = _dense_file(tmp_path, 300)
        _, peak = _load_peak(path)
        assert peak < 8 * os.path.getsize(path)

    def test_dense_load_peak_within_blocks(self, tmp_path):
        # The bulk parse holds the table, 12 bytes per edge and one block's
        # arrays at a time: 2.06 MB here. Parsing the whole file at once
        # holds 6.5x the table (4.7 MB).
        g, peak = _load_peak(_dense_file(tmp_path, 300))
        assert peak <= g.weight.nbytes + 12 * g.edge_count() + 2 * graph._BLOCK_BYTES

    def test_declared_table_waits_for_the_last_block(self, tmp_path):
        # The header declares a 512 MB table; valid edges run past the first
        # block, then a line is short. The bulk parse declines the file before
        # it allocates the table, so the line parse's own edge list sets the
        # peak.
        n = 8000
        lines = [f"{n} {n} {n} 1"] + [f"{i // 100} {i % 100} 1" for i in range(40000)]
        text = "\n".join(lines) + "\n0 0\n"
        assert len(text) > graph._BLOCK_BYTES
        path = write(tmp_path, text)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{path}: line 40002: edge line must be 'u v w'"
        assert peak < 64 << 20

    def test_dense_save_peak_memory(self, tmp_path):
        # A dense 300x300 graph writes a 1.0 MB file. Holding every line
        # before joining them peaked at 8.1x the file size; written line by
        # line, 0.07x: the file buffer and one row's indices.
        n = 300
        weight = np.random.default_rng(0).integers(0, 1001, (n, n))
        g = BipartiteGraph(n, n, 10, n, weight)
        path = str(tmp_path / "dense.txt")
        tracemalloc.start()
        try:
            save_instance(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 2


def _dense_file(tmp_path, n):
    """A dense n x n integer file, as the shipped benchmark writes them."""
    rng = np.random.default_rng(0)
    u, v = np.divmod(np.arange(n * n), n)
    lines = [f"{n} {n} 10 {n}"]
    lines += [f"{a} {b} {w}" for a, b, w in zip(u.tolist(), v.tolist(),
                                                 rng.integers(0, 1001, n * n).tolist())]
    return write(tmp_path, "\n".join(lines) + "\n")


def _load_peak(path):
    """The graph ``load_instance`` reads from ``path``, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        g = load_instance(path)
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _outcome(loader, path):
    try:
        g = loader(path)
    except (ParseError, InfeasibleInstance) as exc:
        return type(exc).__name__, str(exc)
    return (g.n1, g.n2, g.m, g.ubar, g.weight_scale, g.weight.dtype.str, g.weight.tolist())


def _weight_token(rng, decimal=True):
    whole = str(rng.choice([0, 1, 7, 42, 999, 10**6, 10**9]))
    if not decimal or rng.random() < 0.5:
        return whole
    frac = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 6)))
    frac += "0" * rng.randint(0, 2)
    return rng.choice([f"{whole}.{frac}", f".{frac or 5}", f"{whole}."])


def _instance_lines(rng, decimal=True):
    """(header, edge lines) of a random valid instance file; ``decimal=False``
    keeps every weight an integer."""
    n1 = rng.randint(1, 5)
    n2 = rng.randint(n1, 7)
    m = rng.randint(1, 4)
    ubar = rng.randint(-(-n1 // m), n1)
    cells = [(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.7]
    rng.shuffle(cells)
    return [str(n1), str(n2), str(m), str(ubar)], [[str(u), str(v), _weight_token(rng, decimal)]
                                                 for u, v in cells]


def _render(rng, header, edges, ascii_only=False):
    """Write the lines with random blanks, comments, blank lines and line ends;
    ``ascii_only=True`` writes the comment's ``ü`` as ``u``."""
    def blank():
        return rng.choice([" ", "  ", "\t", " \t", "\v", "\f"])

    end = rng.choice(["\n", "\r\n", "\r"])
    out = []
    for toks in [header] + edges:
        while rng.random() < 0.15:
            comment = rng.choice(["", "   ", "# comment only", "\t# ü comment"])
            out.append(comment.replace("ü", "u") if ascii_only else comment)
        line = blank().join(toks)
        if rng.random() < 0.2:
            line = blank() + line + blank()
        if rng.random() < 0.15:
            line += rng.choice(["# trailing", " # 3 4 5"])
        out.append(line)
    return end.join(out) + (end if rng.random() < 0.8 else "")


def _with_defect(rng, kind, header, edges):
    """The lines with one defect of the given kind."""
    if not edges:
        edges = [["0", "0", "1"]]
    edges = [list(toks) for toks in edges]
    row = rng.randrange(len(edges))
    if kind == "short-line":
        edges[row].pop()
    elif kind == "long-line":
        edges[row].append("1")
    elif kind == "junk-token":
        edges[row][rng.randrange(3)] = rng.choice(["x", "1x", "+1", "1_0", "\u0663", "1e3"])
    elif kind == "out-of-range":
        edges[row][rng.randrange(2)] = rng.choice(["9", "100000000000000000000"])
    elif kind == "negative-weight":
        edges[row][2] = "-" + edges[row][2]
    elif kind == "minus-zero-weight":
        edges[row][2] = "-0"
    elif kind == "seven-fraction-digits":
        edges[row][2] = "0.1234567"
    elif kind == "oversized-weight":
        edges[row][2] = "100000000000000000000"
    elif kind == "duplicate-edge":
        edges.insert(rng.randint(row + 1, len(edges)), edges[row][:2] + ["3"])
    elif kind == "bad-header":
        header = rng.choice([header[:3], header + ["1"], ["x"] + header[1:],
                             [header[0], "0"] + header[2:], header[:2] + ["0", header[3]]])
    return header, edges


DEFECTS = ["short-line", "long-line", "junk-token", "out-of-range", "negative-weight",
           "minus-zero-weight", "seven-fraction-digits", "oversized-weight",
           "duplicate-edge", "bad-header"]


class TestLoaderMatchesReference:
    """``load_instance`` against ``oracles.load_instance_reference``: the same
    graph from every valid file, the same exception and message otherwise."""

    @pytest.mark.parametrize("seed", range(150))
    def test_valid_files(self, tmp_path, seed):
        rng = random.Random(seed)
        path = write(tmp_path, _render(rng, *_instance_lines(rng)))
        got = _outcome(load_instance, path)
        assert got == _outcome(load_instance_reference, path)
        assert got[0] != "ParseError"

    @pytest.mark.parametrize("kind", DEFECTS)
    @pytest.mark.parametrize("seed", range(12))
    def test_one_defect(self, tmp_path, kind, seed):
        rng = random.Random(seed)
        header, edges = _with_defect(rng, kind, *_instance_lines(rng))
        path = write(tmp_path, _render(rng, header, edges))
        got = _outcome(load_instance, path)
        assert got == _outcome(load_instance_reference, path)
        assert got[0] == "ParseError"

    @pytest.mark.parametrize("header", ["2 2 99999999999999999999 1",
                                        "2 2 1 99999999999999999999"])
    def test_oversized_header_values(self, tmp_path, header):
        # Past int64, m and ubar load exactly, as the reference reads them.
        path = write(tmp_path, header + "\n0 0 1\n1 1 2\n")
        got = _outcome(load_instance, path)
        assert got == _outcome(load_instance_reference, path)
        assert 10**20 - 1 in got[2:4]

    def test_total_weight_fault_names_its_line(self, tmp_path):
        # At n1 = 9, a weight of MAX_WEIGHT passes the n1 * weight guard
        # MAX_TOTAL_WEIGHT: the bulk parse declines the file, and the line
        # parse names the line, as it does a weight past MAX_WEIGHT.
        lines = ["9 9 1 9"] + [f"{u} {u} 1" for u in range(8)] + [f"8 8 {MAX_WEIGHT}"]
        path = write(tmp_path, "\n".join(lines) + "\n")
        got = _outcome(load_instance, path)
        assert got == _outcome(load_instance_reference, path)
        assert got == ("ParseError", f"{path}: line 10: weight '{MAX_WEIGHT}' is more "
                                     f"than {MAX_TOTAL_WEIGHT // 9} when scaled")

    @pytest.mark.parametrize("seed", range(300))
    def test_mutated_bytes(self, tmp_path, seed):
        # One random byte edit of a valid file: both loaders accept it alike,
        # or both reject it with the same message.
        rng = random.Random(seed)
        data = bytearray(_render(rng, *_instance_lines(rng)).encode())
        at = rng.randrange(len(data) + 1)
        edit = rng.choice([b"", b"0", b"9", b".", b"-", b"+", b" ", b"\t", b"\n", b"\r",
                           b"#", b"x", b"\x00", b"\xff", b"\xc2\xa0", "\u0663".encode()])
        data[at:at + rng.randint(0, 1)] = edit
        path = tmp_path / "inst.txt"
        path.write_bytes(bytes(data))
        assert _outcome(load_instance, str(path)) == _outcome(load_instance_reference, str(path))

    # The variants below write integer weights and ASCII bytes only, the files
    # ``_parse_blocks`` takes, so that its accepts and declines are compared too.

    @pytest.mark.parametrize("seed", range(150))
    def test_valid_integer_ascii_files(self, tmp_path, seed, block_bytes):
        rng = random.Random(seed)
        text = _render(rng, *_instance_lines(rng, decimal=False), ascii_only=True)
        path = write(tmp_path, text)
        got = _outcome(load_instance, path)
        assert got == _outcome(load_instance_reference, path)
        assert got[0] != "ParseError"
        assert _parse_blocks(io.BytesIO(text.encode())) is not None

    @pytest.mark.parametrize("seed", range(300))
    def test_mutated_integer_ascii_bytes(self, tmp_path, seed, block_bytes):
        # One random ASCII edit, no ".": the bulk parse takes exactly the
        # files the reference parses, and both loaders agree on the outcome.
        rng = random.Random(seed)
        data = bytearray(_render(rng, *_instance_lines(rng, decimal=False),
                                 ascii_only=True).encode())
        at = rng.randrange(len(data) + 1)
        edit = rng.choice([b"", b"0", b"9", b"-", b"+", b" ", b"\t", b"\n", b"\r",
                           b"#", b"x", b"\x00"])
        data[at:at + rng.randint(0, 1)] = edit
        path = tmp_path / "inst.txt"
        path.write_bytes(bytes(data))
        want = _outcome(load_instance_reference, str(path))
        assert _outcome(load_instance, str(path)) == want
        assert (_parse_blocks(io.BytesIO(bytes(data))) is None) == (want[0] == "ParseError")


class TestBenchmarkFormat:
    """Files as ``instgen.write_instance`` writes them, the benchmark's only
    input, must take the bulk parse; the line-by-line parse is the slow path."""

    @pytest.fixture(params=["CONSISTENT", "INDEPENDENT"])
    def instgen_file(self, tmp_path, request):
        path = tmp_path / "inst.txt"
        write_instance(InstanceSpec(30, 40, 5, 8, 0.5, request.param, 1000, 7), str(path))
        return path

    def test_accepted_by_bulk_parse(self, instgen_file, block_bytes):
        data = instgen_file.read_bytes()
        assert data.startswith(b"# model=")
        parsed = _parse_blocks(io.BytesIO(data))
        assert parsed is not None
        ref = load_instance_reference(str(instgen_file))
        assert parsed[:4] == (ref.n1, ref.n2, ref.m, ref.ubar)
        assert parsed[5] == ref.weight_scale == 1
        assert (parsed[4] == ref.weight).all()

    @pytest.mark.parametrize("edit", ["decimal", "utf-8-comment"])
    def test_declined_but_loaded(self, instgen_file, edit):
        lines = instgen_file.read_text().split("\n")
        if edit == "decimal":
            lines[2] += ".5"
        else:
            lines[0] += " ü"
        instgen_file.write_text("\n".join(lines), encoding="utf-8")
        assert _parse_blocks(io.BytesIO(instgen_file.read_bytes())) is None
        got = _outcome(load_instance, str(instgen_file))
        assert got == _outcome(load_instance_reference, str(instgen_file))
        assert got[4] == (10 if edit == "decimal" else 1)


class TestBlockBoundaries:
    """Files the bulk parse reads in more than one block: it accepts exactly
    what the reference accepts, builds the same table, and leaves every fault
    to the line parse, whose message names the line."""

    @staticmethod
    def check(tmp_path, data, accepted):
        path = tmp_path / "inst.txt"
        path.write_bytes(data)
        got = _outcome(load_instance, str(path))
        assert got == _outcome(load_instance_reference, str(path))
        assert (_parse_blocks(io.BytesIO(data)) is not None) == accepted
        return got

    def test_header_after_blocks_of_comments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 16)
        data = b"# a comment line of forty bytes or so\n" * 4 + b"\n2 2 1 2\n0 0 1\n1 1 2\n"
        got = self.check(tmp_path, data, True)
        assert got[-1] == [[1, ABSENT], [ABSENT, 2]]

    def test_crlf_split_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 8)
        data = b"1 1 1 1\r\n0 0 5\r\n"
        assert data[7:9] == b"\r\n"  # the first 8-byte block ends on the \r
        assert list(graph._line_blocks(io.BytesIO(data)))[0] == b"1 1 1 1\r"
        assert self.check(tmp_path, data, True)[-1] == [[5]]

    @pytest.mark.parametrize("block", [7, 1 << 18])
    def test_no_final_line_break(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(graph, "_BLOCK_BYTES", block)
        assert self.check(tmp_path, b"2 2 1 2\n0 0 5\n1 1 6", True)[-1] == \
            [[5, ABSENT], [ABSENT, 6]]

    def test_line_of_259_tokens_across_blocks(self, tmp_path, monkeypatch):
        # The line spans 74 blocks of 7 bytes; it is joined once, and its
        # uint8 token count still wraps round to 3, which the token count of
        # np.fromstring declines.
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 7)
        long_line = " ".join(["0"] * 259).encode() + b"\n"
        data = b"1 1 1 1\n" + long_line
        assert list(graph._line_blocks(io.BytesIO(data))) == [b"1 1 1 1\n", long_line]
        got = self.check(tmp_path, data, False)
        assert got == ("ParseError", f"{tmp_path / 'inst.txt'}: line 2: edge line must be 'u v w'")

    @pytest.mark.parametrize("last, message", [
        (b"1 1 \xff", "line 6, column 5: byte 0xff is not UTF-8"),
        (b"1 1 9 9", "line 6: edge line must be 'u v w'"),
    ], ids=["utf-8", "long-line"])
    def test_fault_in_the_last_block(self, tmp_path, monkeypatch, last, message):
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 7)
        data = b"2 2 1 2\n# edges\n0 0 1\n\n0 1 3\n" + last + b"\n"
        got = self.check(tmp_path, data, False)
        assert got == ("ParseError", f"{tmp_path / 'inst.txt'}: {message}")


class TestObjective:
    def test_example_partition_weights(self, example_graph):
        assert partition_weights(example_graph, example_base_solution()) == [4, 2, 5]
        assert partition_weights(example_graph, example_rematched_solution()) == [4, 4, 4]

    def test_relocated_partition_weights(self, example_graph):
        assert partition_weights(example_graph, example_relocated_solution()) == [4, 3, 4]

    def test_single_partition_sums_everything(self):
        g = BipartiteGraph.from_edges(3, 3, 1, 3,
                                      [(0, 0, 5), (1, 1, 7), (2, 2, 2)])
        sol = Solution(mate=[0, 1, 2], partition=PartitionAssignment(1, 3, [0, 0, 0]))
        assert partition_weights(g, sol) == [14]

    def test_sums_exact_past_2_53(self):
        # float64 sums would round 2**53 + 3 to 2**53 + 4
        g = BipartiteGraph.from_edges(3, 3, 2, 3,
                                      [(0, 0, 2**52), (1, 1, 2**52), (2, 2, 3)])
        sol = Solution(mate=[0, 1, 2], partition=PartitionAssignment(2, 3, [0, 0, 0]))
        assert partition_weights(g, sol) == [2**53 + 3, 0]
        assert evaluate_objective(g, sol) == 2**53 + 3

    def test_objective_values(self, example_graph):
        assert evaluate_objective(example_graph, example_base_solution()) == 5
        assert evaluate_objective(example_graph, example_relocated_solution()) == 4
        assert evaluate_objective(example_graph, example_rematched_solution()) == 4

    def test_objective_written_into_solution(self, example_graph):
        sol = example_base_solution()
        evaluate_objective(example_graph, sol)
        assert sol.objective == 5

    def test_single_vertex(self):
        g = BipartiteGraph.from_edges(1, 1, 1, 1, [(0, 0, 9)])
        sol = Solution(mate=[0], partition=PartitionAssignment(1, 1, [0]))
        assert evaluate_objective(g, sol) == 9

    def test_weights_sum_to_total(self, example_graph):
        sol = example_base_solution()
        total = sum(int(example_graph.weight[u, sol.mate[u]]) for u in range(6))
        assert sum(partition_weights(example_graph, sol)) == total

    def test_lower_bounds(self, example_graph):
        sol = example_base_solution()
        obj = evaluate_objective(example_graph, sol)
        total = sum(partition_weights(example_graph, sol))
        assert obj * sol.partition.m >= total
        heaviest = max(int(example_graph.weight[u, sol.mate[u]]) for u in range(6))
        assert obj >= heaviest


class TestValidateSolution:
    def test_ok(self, example_graph):
        assert validate_solution(example_graph, example_base_solution()) is None

    def test_shared_v_vertex(self, example_graph):
        sol = example_base_solution()
        sol.mate[2] = 1
        sol.mate[4] = 1
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 2 and v.subject == 1

    def test_capacity_violation(self, example_graph):
        sol = example_base_solution()
        sol.partition.part_of = [0, 0, 0, 0, 1, 2]
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 4 and v.subject == 0

    def test_unavailable_edge(self, example_graph):
        sol = example_base_solution()
        example_graph.ban_edge(0, 0)
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 1 and v.subject == 0

    @pytest.mark.parametrize("field, constraint", [("mate", 1), ("part_of", 3)])
    def test_wrong_length(self, example_graph, field, constraint):
        sol = example_base_solution()
        owner = sol if field == "mate" else sol.partition
        getattr(owner, field).pop()
        v = validate_solution(example_graph, sol)
        assert (v.constraint, v.subject) == (constraint, -1)
        assert v.message == f"{field} has length 5, expected 6"

    def test_partition_out_of_range(self, example_graph):
        sol = example_base_solution()
        sol.partition.part_of[3] = 7
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 3 and v.subject == 3

    def test_fuzzed_mutations_all_flagged(self, example_graph):
        rng = random.Random(7)
        base = example_base_solution()
        for _ in range(300):
            sol = Solution(mate=list(base.mate), partition=base.partition.copy())
            kind = rng.randrange(3)
            if kind == 0:
                # remap a vertex to a non-available column
                u = rng.randrange(6)
                bad = [v for v in range(6) if not example_graph.is_available(u, v)]
                sol.mate[u] = rng.choice(bad)
            elif kind == 1:
                # duplicate another vertex's mate
                u, w = rng.sample(range(6), 2)
                sol.mate[u] = sol.mate[w]
            else:
                # overload one partition
                k = rng.randrange(3)
                sol.partition.part_of = [k] * 6
            assert validate_solution(example_graph, sol) is not None


class TestBanFlags:
    def test_ban_and_unban(self, example_graph):
        example_graph.ban_edge(2, 5)
        assert not example_graph.is_available(2, 5)
        assert example_graph.has_edge(2, 5)
        example_graph.unban_edge(2, 5)
        assert example_graph.is_available(2, 5)

    def test_cannot_ban_absent_edge(self, example_graph):
        with pytest.raises(ValueError):
            example_graph.ban_edge(0, 1)

    def test_copy_is_independent(self, example_graph):
        g2 = example_graph.copy()
        g2.ban_edge(0, 0)
        assert not example_graph.banned[0, 0]
        assert not np.shares_memory(g2.weight, example_graph.weight)


class TestHasPerfectMatching:
    """``has_perfect_matching`` against scipy's maximum bipartite matching on
    seeded graphs with absent and banned edges, n2 >= n1 and Hall
    violations, and on graphs whose augmenting paths are long."""

    @staticmethod
    def _greedy_covers_u(avail) -> bool:
        """Whether matching each row to its first free available column, in
        row order, already covers U (then no augmenting path is searched)."""
        free = [True] * avail.shape[1]
        for row in avail.tolist():
            v = next((v for v, ok in enumerate(row) if ok and free[v]), None)
            if v is None:
                return False
            free[v] = False
        return True

    def _cross_check(self, graphs) -> dict[str, int]:
        """Assert agreement with scipy on every graph; count the graphs the
        greedy pass covers, those that need augmenting paths and the
        infeasible ones."""
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        csr_matrix = pytest.importorskip("scipy.sparse").csr_matrix
        seen = {"greedy": 0, "augmented": 0, "infeasible": 0}
        for g in graphs:
            avail = g.available_mask()
            mate = csgraph.maximum_bipartite_matching(csr_matrix(avail), perm_type="column")
            expected = bool((mate >= 0).all())
            assert g.has_perfect_matching() == expected
            if not expected:
                seen["infeasible"] += 1
            elif self._greedy_covers_u(avail):
                seen["greedy"] += 1
            else:
                seen["augmented"] += 1
        return seen

    def test_matches_scipy(self):
        rng = random.Random(77)

        def graphs():
            for _ in range(300):
                n1 = rng.randint(1, 40)
                yield seeded_graph(rng, n1, n1 + rng.choice([0, 0, 1, 3, 12]), 9)

        seen = self._cross_check(graphs())
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("n2", [300, 305])
    @pytest.mark.parametrize("hall_violation", [False, True])
    def test_staircase_long_paths(self, n2, hall_violation):
        """Row u may use only columns 0..n-1-u. The greedy pass stalls at row
        n/2 and the augmenting paths that finish the matching run up to n
        columns. The Hall violation removes edge (n-2, 1), so rows n-2 and
        n-1 share only column 0."""
        n = 300
        weight = np.full((n, n2), ABSENT, dtype=np.int64)
        for u in range(n):
            weight[u, :n - u] = 1
        if hall_violation:
            weight[n - 2, 1] = ABSENT
        seen = self._cross_check([BipartiteGraph(n, n2, 1, n, weight)])
        assert seen["infeasible" if hall_violation else "augmented"] == 1

    def test_sparse_matches_scipy(self):
        rng = np.random.default_rng(2024)

        def graphs():
            for i in range(50):
                n1 = int(rng.integers(50, 301))
                n2 = n1 + int(rng.choice([0, 0, 1, 5, 20]))
                avail = rng.random((n1, n2)) < rng.uniform(0.005, 0.05)
                if i % 4:
                    avail[np.arange(n1), rng.permutation(n2)[:n1]] = True
                g = BipartiteGraph(n1, n2, 1, n1, np.where(avail, 1, ABSENT))
                g.banned = avail & (rng.random((n1, n2)) < 0.02)
                yield g

        seen = self._cross_check(graphs())
        assert seen["augmented"] >= 10 and seen["infeasible"] >= 10, seen

    def test_row_without_available_edge(self):
        g = BipartiteGraph.from_edges(2, 3, 1, 2, [(0, 0, 1), (1, 1, 1)])
        assert g.has_perfect_matching()
        g.ban_edge(1, 1)
        assert not g.has_perfect_matching()


def test_weight_guard():
    with pytest.raises(ParseError):
        BipartiteGraph.from_edges(1, 1, 1, 1, [(0, 0, 1 << 60)])


def test_load_solution_rejects_non_utf8(tmp_path):
    path = tmp_path / "solution.json"
    path.write_bytes(b"\xff")
    with pytest.raises(ParseError, match="line 1, column 1: byte 0xff is not UTF-8"):
        load_solution(str(path))
