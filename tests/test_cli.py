"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graphs.io import write_edge_list, write_json_graph
from repro.graphs.generators import running_example


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_local_requires_gamma(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["local", "fruitfly"])

    def test_defaults(self):
        args = build_parser().parse_args(["global", "fruitfly", "--gamma", "0.5"])
        assert args.epsilon == 0.1
        assert args.delta == 0.1
        assert args.method == "gbu"
        assert args.workers is None

    def test_workers_int_and_auto(self):
        args = build_parser().parse_args(
            ["global", "fruitfly", "--gamma", "0.5", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(
            ["global", "fruitfly", "--gamma", "0.5", "--workers", "auto"])
        assert args.workers == "auto"

    def test_workers_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["global", "fruitfly", "--gamma", "0.5", "--workers", "lots"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("fruitfly", "wise"):
            assert name in out

    def test_datasets_write(self, tmp_path, capsys):
        assert main(["datasets", "--write", str(tmp_path),
                     "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 8
        assert (tmp_path / "fruitfly.txt").exists()

    def test_stats_dataset(self, capsys):
        assert main(["stats", "fruitfly"]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "density:" in out

    def test_stats_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["stats", str(path)]) == 0
        assert "nodes: 6" in capsys.readouterr().out

    def test_stats_json_file(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        write_json_graph(running_example(), path)
        assert main(["stats", str(path)]) == 0
        assert "nodes: 6" in capsys.readouterr().out

    def test_missing_file_exits(self):
        with pytest.raises(SystemExit, match="neither a dataset"):
            main(["stats", "/nonexistent/path.txt"])

    def test_local_on_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["local", str(path), "--gamma", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "k_max=4" in out
        assert "k=4: 1 maximal local trusses" in out

    def test_local_verbose(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["local", str(path), "--gamma", "0.125", "--verbose"]) == 0
        assert "nodes=" in capsys.readouterr().out

    def test_nucleus_23_matches_local(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["nucleus", str(path), "--gamma", "0.125",
                     "--r", "2", "--s", "3"]) == 0
        out = capsys.readouterr().out
        # (2, 3)-nucleus == local truss: same k_max as test_local_on_file
        assert "(2,3)-nucleus gamma=0.125 cliques=11 k_max=4" in out
        assert "k=4: 9 r-cliques over 5 nodes / 9 edges" in out

    def test_nucleus_34_verbose(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["nucleus", str(path), "--gamma", "0.125",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "(3,4)-nucleus gamma=0.125 cliques=8 k_max=3" in out
        assert "('v1', 'v2', 'v3') nu=3" in out

    def test_nucleus_bad_family_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["nucleus", str(path), "--gamma", "0.125",
                     "--r", "2", "--s", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_global_on_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main([
            "--seed", "3", "global", str(path), "--gamma", "0.125",
            "--method", "gtd",
        ]) == 0
        out = capsys.readouterr().out
        assert "k_max=4" in out

    def test_parameter_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["local", str(path), "--gamma", "2.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_workers_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["global", str(path), "--gamma", "0.125",
                     "--workers", "-1"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_global_with_workers_matches_single_worker(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        outputs = []
        for n in ("1", "2"):
            assert main(["--seed", "3", "global", str(path),
                         "--gamma", "0.125", "--workers", n]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_global_max_k(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main([
            "global", str(path), "--gamma", "0.125", "--max-k", "2",
        ]) == 0
        assert "k=3" not in capsys.readouterr().out

    def test_export_dot_stdout(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["export", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph")
        assert " -- " in out

    def test_export_hierarchy_to_file(self, tmp_path):
        import json

        src = tmp_path / "g.txt"
        write_edge_list(running_example(), src)
        dst = tmp_path / "h.json"
        assert main(["export", str(src), "--format", "hierarchy",
                     "--gamma", "0.125", "--output", str(dst)]) == 0
        doc = json.loads(dst.read_text())
        assert doc["k_max"] == 4

    def test_export_gexf_requires_output(self, tmp_path):
        src = tmp_path / "g.txt"
        write_edge_list(running_example(), src)
        with pytest.raises(SystemExit):
            main(["export", str(src), "--format", "gexf"])

    def test_export_gexf_to_file(self, tmp_path):
        src = tmp_path / "g.txt"
        write_edge_list(running_example(), src)
        dst = tmp_path / "g.gexf"
        assert main(["export", str(src), "--format", "gexf",
                     "--output", str(dst)]) == 0
        assert dst.exists() and dst.stat().st_size > 0

    def test_gamma(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["gamma", str(path), "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "distinct gamma thresholds" in out
        assert "0.125" in out  # H1's binding threshold appears

    def test_gamma_requires_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gamma", "fruitfly"])

    def test_frontier(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["frontier", str(path)]) == 0
        out = capsys.readouterr().out
        assert "structural k_max = 4" in out

    def test_frontier_edge_curve(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["frontier", str(path), "--edge", "q1", "v1"]) == 0
        out = capsys.readouterr().out
        assert "k=4: gamma_k = 0.125" in out

    def test_frontier_unknown_edge(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        with pytest.raises(SystemExit, match="not in the graph"):
            main(["frontier", str(path), "--edge", "q1", "ghost"])

    def test_modules(self, capsys):
        assert main(["modules", "fruitfly", "--gamma", "0.5",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "modules (gamma=0.5" in out
        assert "k=" in out and "score=" in out

    def test_modules_verbose_refined(self, capsys):
        assert main(["modules", "fruitfly", "--gamma", "0.5", "--refine",
                     "--top", "3", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "globally refined" in out

    def test_clique(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["clique", str(path), "--gamma", "0.1",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "maximum clique: 4 nodes" in out
        assert "probability >= 0.1" in out

    def test_community(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["community", str(path), "v1", "--gamma", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "community hierarchy of 'v1'" in out
        assert "k=4" in out

    def test_community_unknown_node(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        with pytest.raises(SystemExit, match="not in the graph"):
            main(["community", str(path), "ghost", "--gamma", "0.5"])

    def test_reliability(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(running_example(), path)
        assert main(["reliability", str(path), "--samples", "500"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo reliability" in out
        assert "exact reliability" in out  # 11 edges <= 22

    def test_team(self, capsys):
        assert main(["--seed", "11", "team", "--gamma", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "local truss:" in out
        assert "eta-core:" in out
