import json

import pytest

from lcplearn import parse
from lcplearn.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


class TestLearn:
    def test_classical_query_count(self, capsys):
        code, doc, _ = run_cli(capsys, "learn", "--secret", "110", "--mode", "classical")
        assert code == 0
        assert doc["recovered"] == "110"
        assert doc["total_queries"] == 3
        assert doc["schema_version"] == 1

    def test_quantum_query_count(self, capsys):
        code, doc, _ = run_cli(capsys, "learn", "--secret", "110", "--mode", "quantum")
        assert code == 0
        assert doc["recovered"] == "110"
        assert doc["total_queries"] == 2
        assert doc["quantum_oracle_uses"] == 1

    def test_trace_includes_rounds(self, capsys):
        code, doc, _ = run_cli(capsys, "learn", "--secret", "0110", "--trace")
        assert code == 0
        assert [r["round"] for r in doc["trace"]] == [1, 2]
        assert doc["trace"][0]["q_cur"] == 1

    def test_invalid_secret_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["learn", "--secret", "10a"])
        assert err.value.code == 2

    def test_trace_over_the_dense_limit_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["learn", "--secret", "01" * 15, "--trace"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dense simulation limit" in captured.err and "Traceback" not in captured.err

    def test_untraced_learn_has_no_dense_limit(self, capsys):
        code, doc, _ = run_cli(capsys, "learn", "--secret", "01" * 15)
        assert code == 0
        assert doc["recovered"] == "01" * 15
        assert doc["quantum_oracle_uses"] == 15
        assert doc["classical_queries"] == 0


class TestSynth:
    def test_writes_parseable_circuit(self, capsys, tmp_path):
        out = tmp_path / "circ.qasm"
        code, doc, _ = run_cli(capsys, "synth", "--secret", "00", "--out", str(out))
        assert code == 0
        circuit = parse(out.read_text())
        assert circuit.width == 3
        assert doc["gate_counts"]["cx"] == 7  # 6 oracle + 1 reflection
        assert doc["oracle_gate_counts"]["cx"] <= 6
        assert doc["oracle_gate_counts"]["rz"] <= 7

    def test_three_bit_secret_gets_four_qubits(self, capsys, tmp_path):
        out = tmp_path / "circ3.qasm"
        code, doc, _ = run_cli(capsys, "synth", "--secret", "000", "--out", str(out))
        assert code == 0
        assert parse(out.read_text()).width == 4

    def test_single_bit_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--secret", "1", "--out", str(tmp_path / "x.qasm")])
        assert err.value.code == 2

    def test_unwritable_path_fails_cleanly(self, capsys, tmp_path):
        code = main(["synth", "--secret", "00", "--out", str(tmp_path / "missing" / "x.qasm")])
        capsys.readouterr()
        assert code == 1


class TestTranspile:
    @pytest.fixture
    def circuit_file(self, capsys, tmp_path):
        path = tmp_path / "in.qasm"
        main(["synth", "--secret", "00", "--out", str(path)])
        capsys.readouterr()
        return path

    def test_reports_budget_counts(self, capsys, circuit_file, tmp_path):
        out = tmp_path / "out.qasm"
        code, doc, err = run_cli(
            capsys, "transpile", "--in", str(circuit_file), "--target", "linear3", "--out", str(out)
        )
        assert code == 0
        report = doc["report"]
        assert report["legal_gate_set"] and report["legal_coupling"]
        assert report["stages"][-1]["counts"]["cx"] <= 11
        parse(out.read_text())  # output is valid circuit text

    def test_opt_zero_never_smaller(self, capsys, circuit_file, tmp_path):
        _, doc0, _ = run_cli(
            capsys, "transpile", "--in", str(circuit_file), "--target", "linear3", "--opt", "0"
        )
        _, doc1, _ = run_cli(
            capsys, "transpile", "--in", str(circuit_file), "--target", "linear3", "--opt", "1"
        )
        cx0 = doc0["report"]["stages"][-1]["counts"]["cx"]
        cx1 = doc1["report"]["stages"][-1]["counts"]["cx"]
        assert cx1 <= cx0

    def test_json_target_file(self, capsys, circuit_file, tmp_path):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"qubits": 3, "edges": [[0, 1], [1, 2]]}))
        code, doc, _ = run_cli(capsys, "transpile", "--in", str(circuit_file), "--target", str(graph))
        assert code == 0 and doc["report"]["legal_coupling"]

    def test_bad_target_is_usage_error(self, capsys, circuit_file):
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--in", str(circuit_file), "--target", "nope"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "document",
        ["[3]", '{"qubits": 3, "edges": [5]}'],
        ids=["not-an-object", "edge-not-a-pair"],
    )
    def test_malformed_target_json_is_refused_in_one_line(self, capsys, circuit_file, tmp_path, document):
        graph = tmp_path / "graph.json"
        graph.write_text(document)
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--in", str(circuit_file), "--target", str(graph)])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("transpile: bad --target") and captured.err.count("\n") == 1

    def test_auto_map_over_the_search_limit_is_usage_error(self, capsys, tmp_path):
        circuit = tmp_path / "in.qasm"
        main(["synth", "--secret", "000", "--out", str(circuit)])
        graph = tmp_path / "line27.json"
        graph.write_text(json.dumps({"qubits": 27, "edges": [[i, i + 1] for i in range(26)]}))
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--in", str(circuit), "--target", str(graph)])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "explicit mapping" in captured.err

    def test_malformed_circuit_file(self, capsys, tmp_path):
        broken = tmp_path / "broken.qasm"
        broken.write_text("OPENQASM 2.0;\nnot a circuit\n")
        code = main(["transpile", "--in", str(broken), "--target", "linear3"])
        _, err = capsys.readouterr().out, capsys.readouterr().err
        assert code == 1

    def test_unwritable_out_fails_cleanly(self, capsys, circuit_file, tmp_path):
        code = main([
            "transpile", "--in", str(circuit_file), "--target", "linear3",
            "--out", str(tmp_path / "missing" / "x.qasm"),
        ])
        captured = capsys.readouterr()
        assert code == 1  # the code synth returns for an unwritable --out
        assert captured.out == ""
        assert captured.err.startswith("transpile: cannot write") and captured.err.count("\n") == 1

    def test_explicit_mapping_flag(self, capsys, circuit_file):
        code, doc, _ = run_cli(
            capsys, "transpile", "--in", str(circuit_file), "--target", "quito",
            "--mapping", "0,1,3",
        )
        assert code == 0
        assert doc["report"]["mapping"] == [0, 1, 3]


class TestAsp:
    def test_zero_noise_default(self, capsys):
        code, doc, _ = run_cli(
            capsys, "asp", "--secret", "00", "--trials", "2", "--shots", "128"
        )
        assert code == 0
        assert doc["asp"]["mean"] == 1.0

    def test_published_protocol_shape(self, capsys):
        code, doc, _ = run_cli(
            capsys, "asp", "--secret", "01", "--trials", "5", "--shots", "64", "--seed", "1"
        )
        assert code == 0
        assert doc["asp"]["trials"] == 5
        assert len(doc["asp"]["per_trial"]) == 5

    def test_fixed_seed_reproduces_json(self, capsys):
        args = ("asp", "--secret", "10", "--noise", "quito", "--trials", "2", "--shots", "256", "--seed", "5")
        _, doc_a, _ = run_cli(capsys, *args)
        _, doc_b, _ = run_cli(capsys, *args)
        assert doc_a == doc_b

    def test_noise_file(self, capsys, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(
            json.dumps(
                {
                    "cx_error": {"0-1": 0.0074},
                    "readout_error": [0.04, 0.04, 0.07, 0.03, 0.04],
                    "sq_error": [0.0003] * 5,
                }
            )
        )
        code, doc, _ = run_cli(
            capsys, "asp", "--secret", "11", "--noise", str(noise), "--trials", "1", "--shots", "512"
        )
        assert code == 0
        assert 0.0 <= doc["asp"]["mean"] <= 1.0

    def test_one_bit_secret_is_refused_in_one_line(self, capsys):
        code = main(["asp", "--secret", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "asp: needs a secret of at least 2 bits; a 1-bit secret is learned by "
            "one classical query and has no quantum round to replay"
        ]

    def test_more_than_two_to_the_32_shots_refused_in_one_line(self, capsys):
        code = main(["asp", "--secret", "01", "--shots", "4294967297"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("asp: shots must be <= 2**32")
        assert captured.err.count("\n") == 1

    def test_negative_seed_is_a_usage_error(self, capsys):
        code = main(["asp", "--secret", "01", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["asp: expected non-negative integer"]

    def test_malformed_noise_json(self, capsys, tmp_path):
        noise = tmp_path / "bad.json"
        noise.write_text("{\"cx_error\": {}}")
        with pytest.raises(SystemExit) as err:
            main(["asp", "--secret", "11", "--noise", str(noise)])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "document",
        [
            "[1, 2]",
            '{"readout_error": 5}',
            '{"cx_error": {"0-1": null}, "readout_error": [0.04, 0.04, 0.07, 0.03, 0.04]}',
            '{"readout_error": [0.04, 0.04, 0.07, 0.03, 0.04], "sq_error": [0.001]}',
        ],
        ids=["not-an-object", "readout-not-a-list", "null-cx-probability", "sq-shorter-than-readout"],
    )
    def test_malformed_noise_json_is_refused_in_one_line(self, capsys, tmp_path, document):
        noise = tmp_path / "bad.json"
        noise.write_text(document)
        with pytest.raises(SystemExit) as err:
            main(["asp", "--secret", "11", "--noise", str(noise), "--shots", "16"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("asp: bad --noise") and captured.err.count("\n") == 1


class TestVerify:
    def test_classical_suite_passes(self, capsys):
        code, doc, err = run_cli(capsys, "verify", "--suite", "classical", "--max-n", "6")
        assert code == 0
        assert all(check["passed"] for check in doc["checks"])
        assert "PASS" in err

    def test_classical_max_n_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "classical", "--max-n", "13"])
        assert err.value.code == 2
        assert "1..12" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "13"])
    def test_quantum_max_n_out_of_range_is_usage_error(self, capsys, max_n):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "quantum", "--max-n", max_n])
        assert err.value.code == 2
        assert "quantum suite must be in 1..12" in capsys.readouterr().err

    def test_quantum_suite_passes(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "--suite", "quantum", "--max-n", "5")
        assert code == 0
        assert all(check["passed"] for check in doc["checks"])
