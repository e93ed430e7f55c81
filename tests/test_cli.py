import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvmatch
from mvmatch import (
    AlphabetRegistry,
    DisjointnessViolation,
    EmptyPattern,
    FormatError,
    UnknownSymbol,
    parse_pattern_string,
    parse_text_file,
    resolve_pattern,
    serialize_pattern,
    serialize_text,
)
from mvmatch import bench, cli, matchers
from mvmatch.cli import main

from helpers import char_pattern, char_registry, char_text

BABB_FILE = b"word\ttag\n" + b"".join(
    f"{w}\t{t}\n".encode() for w, t in zip("cabbaabc", "BABABACB")
)

# MemoryError messages and what `main` prints after "mvmatch: "
OUT_OF_MEMORY = [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
                 ("", "out of memory")]


def write_babb(tmp_path):
    path = tmp_path / "text.tsv"
    path.write_bytes(BABB_FILE)
    return str(path)


class TestParseTextFile:
    def test_paper_example_file(self):
        registry, text = parse_text_file(BABB_FILE)
        assert registry.k == 2
        assert text.n == 8
        assert registry.view_names == ("word", "tag")
        tokens = [registry.symbol_to_token[s] for s in text.views[0]]
        assert "".join(tokens) == "cabbaabc"

    def test_header_only(self):
        registry, text = parse_text_file(b"word\ttag\n")
        assert registry.k == 2 and text.n == 0

    def test_disjointness_violation(self):
        data = b"w\tt\nrun\trun\n"
        with pytest.raises(FormatError) as exc:
            parse_text_file(data)
        assert exc.value.line == 2
        assert exc.value.reason == str(DisjointnessViolation("run", "w", "t"))

    def test_wrong_field_count(self):
        with pytest.raises(FormatError) as exc:
            parse_text_file(b"w\tt\na\n")
        assert exc.value.line == 2

    def test_empty_token(self):
        with pytest.raises(FormatError):
            parse_text_file(b"w\tt\na\t\n")

    def test_empty_file(self):
        with pytest.raises(FormatError):
            parse_text_file(b"")

    def test_round_trip(self):
        registry, text = parse_text_file(BABB_FILE)
        assert serialize_text(text) == BABB_FILE
        reg2, text2 = parse_text_file(serialize_text(text))
        assert reg2.view_names == registry.view_names
        assert text2.views == text.views

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0c", "\x0b", "\x1e", "\r"])
    def test_line_separator_inside_token(self, sep):
        token = f"a{sep}b"
        registry, text = parse_text_file(f"w\tt\n{token}\tT\n".encode())
        assert text.n == 1
        assert registry.symbol_to_token[text.views[0][0]] == token
        data = serialize_text(text)
        reg2, text2 = parse_text_file(data)
        assert reg2.symbol_to_token == registry.symbol_to_token
        assert text2.views == text.views
        assert serialize_text(text2) == data

    def test_crlf_file(self):
        registry, text = parse_text_file(BABB_FILE.replace(b"\n", b"\r\n"))
        assert registry.view_names == ("word", "tag")
        assert serialize_text(text) == BABB_FILE

    def test_blank_line_is_a_record(self):
        with pytest.raises(FormatError) as exc:
            parse_text_file(b"w\tt\na\tA\n\n")
        assert exc.value.line == 3

    def test_duplicate_view_name(self):
        with pytest.raises(FormatError) as exc:
            parse_text_file(b"w\tw\na\tb\n")
        assert exc.value.line == 1

    def test_byte_order_mark(self):
        registry, _ = parse_text_file(b"\xef\xbb\xbf" + BABB_FILE)
        assert registry.view_names == ("word", "tag")


class TestParsePatternString:
    def test_basic(self):
        reg = char_registry()
        p = parse_pattern_string("B A b B", reg)
        assert p.tokens() == ("B", "A", "b", "B")

    def test_mixed_whitespace(self):
        reg = char_registry()
        assert parse_pattern_string("B  A\tb B", reg).tokens() == ("B", "A", "b", "B")

    def test_unknown_symbol(self):
        reg = char_registry()
        with pytest.raises(UnknownSymbol):
            parse_pattern_string("B Q", reg)

    def test_empty(self):
        with pytest.raises(EmptyPattern):
            parse_pattern_string("   ", char_registry())

    @pytest.mark.parametrize("sep", ["\xa0", "\u2028", "\x85", "\x0c", "\x0b"])
    def test_other_whitespace_is_part_of_a_token(self, sep):
        token = f"10{sep}000"
        reg = AlphabetRegistry(["w"], [[token, "a"]])
        assert parse_pattern_string(f" {token}\ta\r\n", reg).tokens() == (token, "a")

    def test_serialize_pattern(self):
        reg = char_registry()
        assert serialize_pattern(char_pattern(reg, "BAbB")) == b"B A b B\n"

    @pytest.mark.parametrize("token", ["x y", "x\ty", "x\r", "\ny", ""])
    def test_serialize_pattern_refuses_a_separator_in_a_token(self, token):
        reg = AlphabetRegistry(["w"], [[token, "a"]])
        with pytest.raises(FormatError):
            serialize_pattern(resolve_pattern(["a", token], reg))


def test_cli_import_leaves_numpy_unloaded():
    # `search` pays for every module that importing the CLI loads
    env = dict(os.environ, PYTHONPATH=str(Path(mvmatch.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, mvmatch.cli; "
         "print(sorted({'numpy', 'csv', 'mvmatch.bench'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("flags, modules", [
    ([], {"dataclasses", "inspect"}),
    # `-S`: without it, some installs' site-packages hooks import `typing` themselves
    (["-S"], {"dataclasses", "inspect", "typing"}),
])
def test_cli_import_leaves_dataclasses_unloaded(flags, modules):
    env = dict(os.environ, PYTHONPATH=str(Path(mvmatch.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", "import sys, mvmatch.cli; "
         f"print(sorted({modules!r} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_package_exports_what_perfbench_uses():
    # perfbench drives the library through `import mvmatch` alone
    for name in ("GenConfig", "generate_instance", "parse_text_file", "parse_pattern_string",
                 "build_shift_table", "search_horspool", "search_horspool_instrumented",
                 "search_naive", "search_naive_instrumented"):
        assert name in mvmatch.__all__ and callable(getattr(mvmatch, name))
    registry = char_registry()
    assert (registry.k, registry.num_symbols) == (2, 6)
    text = char_text(registry, "cabbaabc", "BABABACB")
    pattern = char_pattern(registry, "BAbB")
    assert pattern.m == 4
    table = mvmatch.build_shift_table(pattern)
    assert type(table.shifts) is dict
    assert mvmatch.search_horspool(text, pattern, table) == [4]
    for instrumented, counts in ((mvmatch.search_horspool_instrumented, (3, 10, 1)),
                                 (mvmatch.search_naive_instrumented, (5, 13, 1))):
        _, stats = instrumented(text, pattern)
        assert (stats.alignments, stats.symbol_reads, stats.matches_found) == counts


class TestCmdSearch:
    def test_match_base0(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path), "--pattern", "B A b B"])
        assert code == 0
        assert capsys.readouterr().out == "4\n"

    def test_match_base1(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path),
                     "--pattern", "B A b B", "--base", "1"])
        assert code == 0
        assert capsys.readouterr().out == "5\n"

    def test_output_independent_of_algorithm(self, tmp_path, capsys):
        path = write_babb(tmp_path)
        outs = []
        for alg in ("horspool", "naive"):
            code = main(["search", "--text", path, "--pattern", "B A b B",
                         "--algorithm", alg])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_no_match_exit_1(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path),
                     "--pattern", "A A A A A"])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["search", "--text", str(tmp_path / "nope.tsv"), "--pattern", "a"])
        assert code == 2
        assert "mvmatch:" in capsys.readouterr().err

    def test_unknown_pattern_token_exit_2(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path), "--pattern", "Z"])
        assert code == 2
        assert "Z" in capsys.readouterr().err

    def test_shared_token_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "shared.tsv"
        path.write_bytes(b"w\tt\na\tb\nc\ta\n")
        assert main(["search", "--text", str(path), "--pattern", "a"]) == 2
        assert capsys.readouterr().err == (
            "mvmatch: line 3: token 'a' appears in both view 'w' and view 't';"
            " view alphabets must be disjoint\n"
        )

    def test_count_flag(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path),
                     "--pattern", "B A b B", "--count"])
        assert code == 0
        assert capsys.readouterr().out == "1\n"

    def test_naive_stats(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path), "--pattern", "B A b B",
                     "--algorithm", "naive", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "4\n"
        assert captured.err == "alignments=5 symbol_reads=13 matches=1\n"

    def test_no_break_space_token(self, tmp_path, capsys):
        path = tmp_path / "t.tsv"
        path.write_bytes("w\tt\n10\u00a0000\tT\n1\tT\n".encode())
        code = main(["search", "--text", str(path), "--pattern", "10\u00a0000 T"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_calls_layer_functions_through_module_globals(self, tmp_path, capsys, monkeypatch):
        # a tracer wraps these module attributes to time each layer of `search`
        calls = []
        for name in ("parse_text_file", "parse_pattern_string", "search_horspool"):
            def traced(*args, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli, name, traced)
        assert main(["search", "--text", write_babb(tmp_path), "--pattern", "B A b B"]) == 0
        assert sorted(calls) == ["parse_pattern_string", "parse_text_file", "search_horspool"]
        capsys.readouterr()

    @pytest.mark.parametrize("flags, expected_err", [
        ([], ""), (["--stats"], "alignments=0 symbol_reads=0 matches=1\n")], ids=["fast", "stats"])
    def test_algorithm_dispatches_through_kernels(self, tmp_path, capsys, monkeypatch,
                                                  flags, expected_err):
        calls = []

        def fast(text, pattern):
            calls.append("fast")
            return [1]

        def instrumented(text, pattern):
            calls.append("instrumented")
            return [1], matchers.SearchStats([], 0, 1)

        monkeypatch.setitem(matchers.KERNELS, "fake", (fast, instrumented))
        code = main(["search", "--text", write_babb(tmp_path), "--pattern", "B A b B",
                     "--algorithm", "fake", *flags])
        assert code == 0
        assert calls == (["instrumented"] if flags else ["fast"])
        captured = capsys.readouterr()
        assert captured.out == "1\n" and captured.err == expected_err

    def test_stats_to_stderr(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path),
                     "--pattern", "B A b B", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "4\n"
        assert "alignments=3" in captured.err

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_quietly(self, tmp_path, unbuffered):
        # k=1, sigma=1: every one of the 100 000 windows matches, far more
        # output than a pipe buffers, so the reader closes it mid-search
        path = tmp_path / "t.tsv"
        path.write_bytes(b"v\n" + b"x\n" * 100_000)
        env = dict(os.environ, PYTHONPATH=str(Path(mvmatch.__file__).parents[1]),
                   PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mvmatch.cli", "search", "--text", str(path),
             "--pattern", "x"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == b""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_closed_before_start_exits_141_quietly(self, tmp_path, unbuffered):
        # 100 matches fit in stdout's buffer: buffered, the first write is the final flush
        path = tmp_path / "t.tsv"
        path.write_bytes(b"v\n" + b"x\n" * 100)
        env = dict(os.environ, PYTHONPATH=str(Path(mvmatch.__file__).parents[1]),
                   PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mvmatch.cli", "search", "--text", str(path),
                 "--pattern", "x"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestCmdGen:
    def test_round_trip_through_files(self, tmp_path, capsys):
        text_path = str(tmp_path / "t.tsv")
        pat_path = str(tmp_path / "p.txt")
        code = main(["gen", "--k", "3", "--n", "500", "--sigma", "10", "--m", "10",
                     "--seed", "1", "--mode", "planted",
                     "--out-text", text_path, "--out-pattern", pat_path])
        assert code == 0
        with open(text_path, "rb") as fh:
            registry, text = parse_text_file(fh.read())
        assert registry.k == 3 and text.n == 500
        with open(pat_path) as fh:
            pattern = parse_pattern_string(fh.read(), registry)
        assert pattern.m == 10

    def test_planted_gen_then_search_exits_0(self, tmp_path, capsys):
        text_path = str(tmp_path / "t.tsv")
        pat_path = str(tmp_path / "p.txt")
        assert main(["gen", "--k", "2", "--n", "200", "--sigma", "4", "--m", "6",
                     "--seed", "7", "--mode", "planted",
                     "--out-text", text_path, "--out-pattern", pat_path]) == 0
        with open(pat_path) as fh:
            pattern_str = fh.read().strip()
        code = main(["search", "--text", text_path, "--pattern", pattern_str])
        assert code == 0
        assert capsys.readouterr().out.strip() != ""

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        code = main(["gen", "--k", "1", "--n", "10", "--sigma", "0", "--m", "2",
                     "--seed", "0",
                     "--out-text", str(tmp_path / "t"), "--out-pattern", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code = main(["gen", "--k", "1", "--n", "10", "--sigma", "2", "--m", "2",
                     "--seed", "-1",
                     "--out-text", str(tmp_path / "t"), "--out-pattern", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err == "mvmatch: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("missing", ["--out-text", "--out-pattern"])
    def test_unwritable_path_writes_neither_file(self, tmp_path, capsys, missing):
        paths = {"--out-text": tmp_path / "t.tsv", "--out-pattern": tmp_path / "p.txt"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        code = main(["gen", "--k", "2", "--n", "100", "--sigma", "3", "--m", "4", "--seed", "1",
                     "--out-text", str(paths["--out-text"]),
                     "--out-pattern", str(paths["--out-pattern"])])
        assert code == 2
        assert capsys.readouterr().err.startswith("mvmatch: ")
        assert not any(path.exists() for path in paths.values())
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind

    def test_unwritable_pattern_keeps_existing_text(self, tmp_path, capsys):
        text_path = tmp_path / "t.tsv"
        text_path.write_bytes(b"earlier\n")
        pat_path = tmp_path / "missing" / "p.txt"
        code = main(["gen", "--k", "2", "--n", "100", "--sigma", "3", "--m", "4", "--seed", "1",
                     "--out-text", str(text_path), "--out-pattern", str(pat_path)])
        assert code == 2
        assert capsys.readouterr().err.endswith(f"No such file or directory: {str(pat_path)!r}\n")
        assert text_path.read_bytes() == b"earlier\n"
        assert list(tmp_path.iterdir()) == [text_path]

    @pytest.mark.parametrize("directory", ["--out-text", "--out-pattern"])
    def test_directory_target_keeps_the_other_file(self, tmp_path, capsys, directory):
        paths = {"--out-text": tmp_path / "t.tsv", "--out-pattern": tmp_path / "p.txt"}
        paths[directory].mkdir()
        other = paths["--out-pattern" if directory == "--out-text" else "--out-text"]
        other.write_bytes(b"earlier\n")
        code = main(["gen", "--k", "2", "--n", "100", "--sigma", "3", "--m", "4", "--seed", "1",
                     "--out-text", str(paths["--out-text"]),
                     "--out-pattern", str(paths["--out-pattern"])])
        assert code == 2
        assert capsys.readouterr().err == \
            f"mvmatch: Not a regular file: {str(paths[directory])!r}\n"
        assert other.read_bytes() == b"earlier\n"
        assert list(paths[directory].iterdir()) == []
        assert sorted(tmp_path.iterdir()) == sorted(paths.values())  # no temporary file left

    def test_existing_files_replaced_on_success(self, tmp_path, capsys):
        text_path, pat_path = tmp_path / "t.tsv", tmp_path / "p.txt"
        text_path.write_bytes(b"earlier\n")
        pat_path.write_bytes(b"earlier\n")
        assert main(["gen", "--k", "2", "--n", "100", "--sigma", "3", "--m", "4", "--seed", "1",
                     "--out-text", str(text_path), "--out-pattern", str(pat_path)]) == 0
        registry, text = parse_text_file(text_path.read_bytes())
        assert text.n == 100
        assert parse_pattern_string(pat_path.read_text(), registry).m == 4
        assert sorted(tmp_path.iterdir()) == [pat_path, text_path]

    def test_oversized_n_exit_2(self, tmp_path, capsys):
        # Only values above the bound: below it numpy would try to allocate.
        code = main(["gen", "--k", "1", "--n", "100000000000000000000", "--sigma", "2",
                     "--m", "2", "--seed", "0",
                     "--out-text", str(tmp_path / "t"), "--out-pattern", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err.startswith("mvmatch: k * n must be <= ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pattern_path", ["x", "./x"])
    def test_same_output_path_exit_2(self, tmp_path, capsys, monkeypatch, pattern_path):
        monkeypatch.chdir(tmp_path)
        code = main(["gen", "--k", "2", "--n", "100", "--sigma", "3", "--m", "4", "--seed", "1",
                     "--out-text", "x", "--out-pattern", pattern_path])
        assert code == 2
        assert capsys.readouterr().err == \
            f"mvmatch: --out-text and --out-pattern name the same file {pattern_path!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message, expected", OUT_OF_MEMORY)
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, message, expected):
        def generate(config):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_instance", generate)
        code = main(["gen", "--k", "1", "--n", "1000000000000", "--sigma", "2", "--m", "1",
                     "--seed", "0",
                     "--out-text", str(tmp_path / "t"), "--out-pattern", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err == f"mvmatch: {expected}\n"
        assert list(tmp_path.iterdir()) == []


class TestBenchParser:
    def test_m_list_defaults_to_2_through_30(self):
        args = cli.build_parser().parse_args(["bench", "--csv", "x"])
        assert args.m_list == list(range(2, 31))

    @pytest.mark.parametrize("flag", [["--algorithms", "naive"], ["--mode", "planted"],
                                      ["--m-min", "2"], ["--m-max", "5"]])
    def test_removed_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["bench", "--csv", "x"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCmdBench:
    def test_counts_only_deterministic(self, tmp_path, capsys):
        paths = [str(tmp_path / f"b{i}.csv") for i in range(2)]
        for path in paths:
            code = main(["bench", "--k", "2", "--n", "300", "--sigma", "4",
                         "--m-list", "2", "4", "--instances", "3", "--seed", "5",
                         "--csv", path, "--counts-only"])
            assert code == 0
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1]
        capsys.readouterr()

    def test_row_count_matches_grid(self, tmp_path, capsys):
        path = str(tmp_path / "b.csv")
        code = main(["bench", "--k", "2", "--n", "200", "--sigma", "3",
                     "--m-list", "2", "3", "4", "5", "--instances", "2",
                     "--seed", "0", "--csv", path, "--counts-only"])
        assert code == 0
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + 4 * 2
        out = capsys.readouterr().out
        assert "read ratio" in out

    def test_single_m_two_rows(self, tmp_path, capsys):
        path = str(tmp_path / "b.csv")
        code = main(["bench", "--k", "1", "--n", "100", "--sigma", "2",
                     "--m-list", "4", "--instances", "1", "--seed", "2",
                     "--csv", path, "--counts-only"])
        assert code == 0
        with open(path) as fh:
            assert len(fh.read().splitlines()) == 3
        capsys.readouterr()

    def test_pattern_longer_than_text_has_no_ratio(self, tmp_path, capsys):
        code = main(["bench", "--n", "50", "--m-list", "4", "60", "--instances", "1",
                     "--csv", str(tmp_path / "b.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("m=4: read ratio naive/horspool = ")
        assert lines[1] == "m=60: no windows (m > n)"

    def test_repeated_m_runs_once(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        code = main(["bench", "--k", "2", "--n", "100", "--sigma", "3",
                     "--m-list", "4", "4", "--instances", "1", "--seed", "2",
                     "--csv", str(path), "--counts-only"])
        assert code == 0
        assert [line.split(",")[:2] for line in path.read_text().splitlines()[1:]] == \
            [["4", "horspool"], ["4", "naive"]]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("m=4: read ratio")

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        path.write_text("earlier run\n")
        code = main(["bench", "--k", "0", "--n", "100", "--sigma", "2",
                     "--m-list", "4", "--instances", "1", "--seed", "2",
                     "--csv", str(path), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err
        assert path.read_text() == "earlier run\n"  # a failed run leaves the file as it was

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code = main(["bench", "--n", "100", "--m-list", "4", "--instances", "1",
                     "--seed", "-1", "--csv", str(tmp_path / "b.csv"), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err == "mvmatch: seed must be >= 0, got -1\n"
        assert not (tmp_path / "b.csv").exists()

    def test_unwritable_csv_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def generate(config, registry):
            raise AssertionError(f"generated an instance for m={config.m}")

        monkeypatch.setattr(bench, "_generate", generate)
        code = main(["bench", "--n", "100", "--m-list", "2", "30", "--instances", "1",
                     "--csv", str(tmp_path / "missing" / "b.csv"), "--counts-only"])
        assert code == 2
        assert "mvmatch:" in capsys.readouterr().err

    def test_oversized_n_exit_2(self, tmp_path, capsys):
        code = main(["bench", "--n", "100000000000000000000", "--m-list", "2", "--instances", "1",
                     "--csv", str(tmp_path / "b.csv"), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err.startswith("mvmatch: k * n must be <= ")
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("message, expected", OUT_OF_MEMORY)
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, message, expected):
        def generate(config, registry):
            raise MemoryError(message)

        monkeypatch.setattr(bench, "_generate", generate)
        code = main(["bench", "--k", "1", "--n", "1000000000000", "--sigma", "2", "--m-list", "1",
                     "--instances", "1", "--csv", str(tmp_path / "b.csv"), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err == f"mvmatch: {expected}\n"
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_keeps_existing_csv(self, tmp_path, capsys, monkeypatch):
        def generate(config, registry):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "_generate", generate)
        path = tmp_path / "b.csv"
        path.write_bytes(b"earlier run\n")
        with pytest.raises(KeyboardInterrupt):
            main(["bench", "--n", "100", "--m-list", "4", "--instances", "1",
                  "--csv", str(path), "--counts-only"])
        assert path.read_bytes() == b"earlier run\n"
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left

    @pytest.mark.parametrize("kind", ["directory", "fifo", "symlink to fifo"])
    def test_non_regular_csv_fails_before_the_run(self, tmp_path, capsys, monkeypatch, kind):
        # a device or FIFO, such as /dev/null, must never be replaced by a regular file
        def generate(config, registry):
            raise AssertionError(f"generated an instance for m={config.m}")

        monkeypatch.setattr(bench, "_generate", generate)
        target = tmp_path / "target"
        if kind == "directory":
            target.mkdir()
        else:
            os.mkfifo(target)
        path = tmp_path / "b.csv" if kind == "symlink to fifo" else target
        if path != target:
            path.symlink_to(target)
        before = sorted((p, os.lstat(p).st_mode) for p in tmp_path.iterdir())
        code = main(["bench", "--n", "100", "--m-list", "2", "--instances", "1",
                     "--csv", str(path), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err == f"mvmatch: Not a regular file: {str(path)!r}\n"
        # every path kept its type, and no temporary file is left
        assert sorted((p, os.lstat(p).st_mode) for p in tmp_path.iterdir()) == before

    def test_symlinked_csv_is_written_through(self, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier run\n")
        link = tmp_path / "b.csv"
        link.symlink_to(target)
        code = main(["bench", "--k", "1", "--n", "100", "--sigma", "2", "--m-list", "4",
                     "--instances", "1", "--csv", str(link), "--counts-only"])
        assert code == 0
        assert link.is_symlink() and target.read_text().startswith("m,algorithm,")
        assert sorted(tmp_path.iterdir()) == [link, target]  # no temporary file left
        capsys.readouterr()

    def test_file_with_the_temporary_name_is_kept(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        tmp = tmp_path / f"b.csv.{os.getpid()}.tmp"
        tmp.write_bytes(b"not ours\n")
        code = main(["bench", "--k", "1", "--n", "100", "--sigma", "2", "--m-list", "4",
                     "--instances", "1", "--csv", str(path), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err == f"mvmatch: [Errno 17] File exists: {str(path)!r}\n"
        assert tmp.read_bytes() == b"not ours\n"
        assert list(tmp_path.iterdir()) == [tmp]
