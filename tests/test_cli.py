import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvmatch
from mvmatch import (
    DisjointnessViolation,
    EmptyPattern,
    FormatError,
    UnknownSymbol,
    build_registry,
    parse_pattern_string,
    parse_text_file,
    resolve_pattern,
    serialize_pattern,
    serialize_text,
)
from mvmatch import bench, cli
from mvmatch.cli import main

from helpers import char_pattern, char_registry, char_text

BABB_FILE = b"word\ttag\n" + b"".join(
    f"{w}\t{t}\n".encode() for w, t in zip("cabbaabc", "BABABACB")
)


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
        with pytest.raises(DisjointnessViolation):
            parse_text_file(data)

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
        reg = build_registry(["w"], [[token, "a"]])
        assert parse_pattern_string(f" {token}\ta\r\n", reg).tokens() == (token, "a")

    def test_serialize_pattern(self):
        reg = char_registry()
        assert serialize_pattern(char_pattern(reg, "BAbB")) == b"B A b B\n"

    @pytest.mark.parametrize("token", ["x y", "x\ty", "x\r", "\ny", ""])
    def test_serialize_pattern_refuses_a_separator_in_a_token(self, token):
        reg = build_registry(["w"], [[token, "a"]])
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


def test_package_exports_what_perfbench_uses():
    # perfbench drives the library through `import mvmatch` alone
    for name in ("GenConfig", "generate_instance", "parse_text_file", "parse_pattern_string",
                 "build_shift_table", "search_horspool", "search_horspool_instrumented",
                 "search_naive", "search_naive_instrumented"):
        assert name in mvmatch.__all__ and callable(getattr(mvmatch, name))
    table = mvmatch.build_shift_table(char_pattern(char_registry(), "BAbB"))
    assert type(table.shifts) is dict


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

    def test_count_flag(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path),
                     "--pattern", "B A b B", "--count"])
        assert code == 0
        assert capsys.readouterr().out == "1\n"

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

    def test_stats_to_stderr(self, tmp_path, capsys):
        code = main(["search", "--text", write_babb(tmp_path),
                     "--pattern", "B A b B", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "4\n"
        assert "alignments=3" in captured.err


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
        assert path.read_text() == "earlier run\n"  # validated before the file is opened

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code = main(["bench", "--n", "100", "--m-list", "4", "--instances", "1",
                     "--seed", "-1", "--csv", str(tmp_path / "b.csv"), "--counts-only"])
        assert code == 2
        assert capsys.readouterr().err == "mvmatch: seed must be >= 0, got -1\n"
        assert not (tmp_path / "b.csv").exists()

    def test_unwritable_csv_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def generate(config):
            raise AssertionError(f"generated an instance for m={config.m}")

        monkeypatch.setattr(bench, "generate_instance", generate)
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
