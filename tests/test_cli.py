import argparse
import contextlib
import importlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcplearn import CouplingGraph, NoiseProfile, SecretString, build_full_circuit, parse, serialize, synth
from lcplearn.cli import build_parser, main

transpile_module = importlib.import_module("lcplearn.transpile")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def refused(capsys, *argv):
    """Run a request the CLI must refuse: exit 2, nothing on stdout and one
    `<command>: ...` line on stderr, with no usage line.  Returns that line."""
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.err.startswith(f"{argv[0]}: ")
    return captured.err.rstrip("\n")


class TestLearn:
    def test_classical_query_count(self, capsys):
        code, doc, _ = run_cli(capsys, "learn", "--secret", "110", "--mode", "classical")
        assert code == 0
        assert doc["recovered"] == "110"
        assert doc["total_queries"] == 3
        assert doc["schema_version"] == 2

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

    def test_trace_lists_each_snapshot_support_by_its_bits(self, capsys):
        """Keys are the x bits then the q bits, in ascending index order."""
        code, doc, _ = run_cli(capsys, "learn", "--secret", "0110", "--trace")
        assert code == 0
        h = 0.4999999999999999  # (1/sqrt 2)^2 in floating point
        first = doc["trace"][0]["states"]
        assert first["superposed"] == {k: [h, 0.0] for k in ("000001", "010001", "100001", "110001")}
        assert first["phased"]["010001"] == [-h, 0.0]
        assert list(first["collapsed"]) == ["010001"]
        assert list(doc["trace"][1]["states"]["collapsed"]) == ["011011"]

    def test_invalid_secret_is_usage_error(self, capsys):
        for text in ("10a", "01a", ""):
            line = refused(capsys, "learn", "--secret", text)
            assert line == f"learn: --secret must be a nonempty binary string, got {text!r}"

    def test_trace_over_the_bound_is_usage_error(self, capsys):
        line = refused(capsys, "learn", "--secret", "1" * 1025, "--trace")
        assert line == "learn: --trace: a traced run is limited to 1024 bits, got 1025"

    def test_sixteen_bit_trace_writes_kilobytes(self, capsys):
        code, doc, _ = run_cli(capsys, "learn", "--secret", "1" * 16, "--trace")
        assert code == 0
        assert len(doc["trace"]) == 8
        assert len(json.dumps(doc, indent=2)) < 64 * 1024

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

    def test_synthesizes_the_oracle_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = synth.walsh_decompose

        def counted(signs):
            calls.append(signs)
            return original(signs)

        monkeypatch.setattr(synth, "walsh_decompose", counted)
        code, _, _ = run_cli(capsys, "synth", "--secret", "0110", "--out", str(tmp_path / "c.qasm"))
        assert code == 0
        assert len(calls) == 1

    def test_single_bit_rejected(self, capsys, tmp_path):
        line = refused(capsys, "synth", "--secret", "1", "--out", str(tmp_path / "x.qasm"))
        assert "n >= 2" in line
        assert not (tmp_path / "x.qasm").exists()

    def test_over_the_synthesis_width_limit_is_usage_error(self, capsys, tmp_path):
        """13 bits take a 4-qubit q register: 17 qubits, over the 12-qubit limit."""
        line = refused(capsys, "synth", "--secret", "0" * 13, "--out", str(tmp_path / "x.qasm"))
        assert line == "synth: diagonal synthesis limited to 12 qubits"
        assert not (tmp_path / "x.qasm").exists()

    def test_parameters_name_only_the_secret(self, capsys, tmp_path):
        code, doc, _ = run_cli(capsys, "synth", "--secret", "101", "--out", str(tmp_path / "c.qasm"))
        assert code == 0
        assert doc["parameters"] == {"secret": "101"}

    def test_q_register_width_is_not_an_option(self, capsys, tmp_path):
        """The q register is always the layout's t qubits; no flag widens it."""
        with pytest.raises(SystemExit) as err:
            main(["synth", "--secret", "101", "--t", "4", "--out", str(tmp_path / "c.qasm")])
        assert err.value.code == 2
        assert not (tmp_path / "c.qasm").exists()

    def test_no_option_selects_another_synthesis(self, capsys, tmp_path):
        """The Gray walk is the only synthesis; no flag selects another."""
        with pytest.raises(SystemExit) as err:
            main(["synth", "--secret", "00", "--no-gray", "--out", str(tmp_path / "c.qasm")])
        assert err.value.code == 2
        assert not (tmp_path / "c.qasm").exists()

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

    def test_parameters_name_only_the_input_and_target(self, capsys, circuit_file):
        code, doc, _ = run_cli(capsys, "transpile", "--in", str(circuit_file), "--target", "linear3")
        assert code == 0
        assert doc["parameters"] == {"in": str(circuit_file), "target": "linear3"}
        assert [s["name"] for s in doc["report"]["stages"]][-1] == "optimize"

    def test_optimization_is_not_an_option(self, capsys, circuit_file, tmp_path):
        """Every compile is optimized; no flag skips the peephole pass."""
        out = tmp_path / "out.qasm"
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--in", str(circuit_file), "--target", "quito", "--opt", "0", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_json_target_file(self, capsys, circuit_file, tmp_path):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"qubits": 3, "edges": [[0, 1], [1, 2]]}))
        code, doc, _ = run_cli(capsys, "transpile", "--in", str(circuit_file), "--target", str(graph))
        assert code == 0 and doc["report"]["legal_coupling"]

    def test_bad_target_is_usage_error(self, capsys, circuit_file):
        line = refused(capsys, "transpile", "--in", str(circuit_file), "--target", "nope")
        assert line.startswith("transpile: bad --target 'nope'")

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

    def test_underconnected_target_is_refused_before_any_search(self, capsys, circuit_file, tmp_path, monkeypatch):
        """10^8 qubits with no edges cannot be connected: refused from the
        document's counts alone, before a neighbour list or a search."""

        def fail(self, root):
            raise AssertionError("searched a graph that was already refused")

        monkeypatch.setattr(CouplingGraph, "_bfs", fail)
        graph = tmp_path / "huge.json"
        graph.write_text('{"qubits": 100000000, "edges": []}')
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--in", str(circuit_file), "--target", str(graph)])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("transpile: bad --target") and captured.err.count("\n") == 1
        assert "cannot be connected" in captured.err

    def test_auto_map_over_the_search_limit_is_usage_error(self, capsys, tmp_path):
        circuit = tmp_path / "in.qasm"
        main(["synth", "--secret", "000", "--out", str(circuit)])
        graph = tmp_path / "line27.json"
        graph.write_text(json.dumps({"qubits": 27, "edges": [[i, i + 1] for i in range(26)]}))
        capsys.readouterr()
        assert "explicit mapping" in refused(capsys, "transpile", "--in", str(circuit), "--target", str(graph))

    def test_malformed_circuit_file(self, capsys, tmp_path):
        broken = tmp_path / "broken.qasm"
        broken.write_text("OPENQASM 2.0;\nnot a circuit\n")
        line = refused(capsys, "transpile", "--in", str(broken), "--target", "linear3")
        assert line.startswith("transpile: parse failure")

    @staticmethod
    def cancellable_word(tmp_path, depth):
        """`depth` CXs alternating between q[0],q[1] and q[1],q[2], then their
        mirror image: the identity, which the peephole pass cancels in one
        sweep and confirms in a second."""
        word = ["cx q[0],q[1];", "cx q[1],q[2];"] * (depth // 2)
        path = tmp_path / f"word{depth}.qasm"
        path.write_text("\n".join(["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];", *word, *word[::-1]]) + "\n")
        return path

    def test_cancellable_word_within_the_sweep_cap_compiles_to_nothing(self, capsys, tmp_path):
        for depth in (60, 120, 600):  # 2 * depth gates
            path = self.cancellable_word(tmp_path, depth)
            code, doc, _ = run_cli(capsys, "transpile", "--in", str(path), "--target", "linear3", "--mapping", "0,1,2")
            assert code == 0
            assert sum(doc["report"]["stages"][-1]["counts"].values()) == 0
            assert doc["report"]["sweeps"] == 2

    def test_word_past_the_sweep_cap_is_refused(self, capsys, tmp_path, monkeypatch):
        # the word needs 2 sweeps; a cap of 1 refuses it
        monkeypatch.setattr(transpile_module, "MAX_SWEEPS", 1)
        path = self.cancellable_word(tmp_path, 120)  # 240 gates
        with pytest.raises(SystemExit) as err:
            main(["transpile", "--in", str(path), "--target", "linear3", "--mapping", "0,1,2"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "MAX_SWEEPS = 1" in captured.err and "Traceback" not in captured.err

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

    def test_negative_mapping_is_usage_error(self, capsys, circuit_file):
        line = refused(capsys, "transpile", "--in", str(circuit_file), "--target", "quito", "--mapping=-1,0,1")
        assert line == "transpile: mapping targets nonexistent physical qubits"

    REFUSALS = {
        "sweep-cap": "needs more than MAX_SWEEPS = 1 sweeps",
        "mapping-width": "mapping width does not match circuit width",
        "mapping-off-device": "mapping targets nonexistent physical qubits",
        "search-limit": "pass an explicit mapping",
        "mapping-text": "bad --mapping '0,x,1'",
        "mapping-repeat": "mapping must be injective",
        "unreadable-in": "cannot read --in",
    }

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refusal_is_one_stderr_line(self, capsys, circuit_file, tmp_path, monkeypatch, case):
        """Every refusal after parsing prints one `transpile: ...` line to
        stderr, nothing to stdout, and exits 2, with no usage line.  The
        sweep cap is lowered to 1, below the 2 sweeps a mirror word needs."""
        monkeypatch.setattr(transpile_module, "MAX_SWEEPS", 1)
        line27 = tmp_path / "line27.json"
        line27.write_text(json.dumps({"qubits": 27, "edges": [[i, i + 1] for i in range(26)]}))
        on_quito = ["--in", str(circuit_file), "--target", "quito", "--mapping"]
        argv = {
            "sweep-cap": ["--in", str(self.cancellable_word(tmp_path, 120)), "--target", "linear3", "--mapping", "0,1,2"],
            "mapping-width": on_quito + ["0,1"],
            "mapping-off-device": on_quito + ["0,1,7"],
            "search-limit": ["--in", str(circuit_file), "--target", str(line27)],
            "mapping-text": on_quito + ["0,x,1"],
            "mapping-repeat": on_quito + ["0,1,1"],
            "unreadable-in": ["--in", str(tmp_path / "absent.qasm"), "--target", "quito"],
        }[case]
        with pytest.raises(SystemExit) as err:
            main(["transpile", *argv])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("transpile: ") and captured.err.count("\n") == 1
        assert self.REFUSALS[case] in captured.err


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
        assert refused(capsys, "asp", "--secret", "0") == (
            "asp: needs a secret of at least 2 bits; a 1-bit secret is learned by "
            "one classical query and has no quantum round to replay"
        )

    def test_more_than_two_to_the_32_shots_refused_in_one_line(self, capsys):
        line = refused(capsys, "asp", "--secret", "01", "--shots", "4294967297")
        assert line.startswith("asp: shots must be <= 2**32")

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert refused(capsys, "asp", "--secret", "01", "--seed", "-1") == "asp: expected non-negative integer"

    def test_long_profile_lists_give_the_counts_of_their_prefix(self, capsys, tmp_path):
        """Readout and single-qubit lists of 100 000 entries load, and the
        replay reads only the circuit's first five."""
        quito = NoiseProfile.quito().to_dict()
        padded = dict(quito, readout_error=quito["readout_error"] + [0.5] * 99_995)
        padded["sq_error"] = quito["sq_error"] + [0.5] * 99_995
        reports = []
        for name, document in (("prefix", quito), ("padded", padded)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            code, doc, _ = run_cli(
                capsys, "asp", "--secret", "011", "--noise", str(path), "--trials", "2", "--shots", "1024", "--seed", "4"
            )
            assert code == 0
            reports.append(doc["asp"])
        assert reports[0] == reports[1]
        assert reports[0]["mean"] < 1.0

    def test_malformed_noise_json(self, capsys, tmp_path):
        noise = tmp_path / "bad.json"
        noise.write_text("{\"cx_error\": {}}")
        line = refused(capsys, "asp", "--secret", "11", "--noise", str(noise))
        assert line.startswith("asp: bad --noise")

    @pytest.mark.parametrize(
        "document",
        [
            "[1, 2]",
            '{"readout_error": 5}',
            '{"cx_error": {"0-1": null}, "readout_error": [0.04, 0.04, 0.07, 0.03, 0.04]}',
            '{"readout_error": [0.04, 0.04, 0.07, 0.03, 0.04], "sq_error": [0.001]}',
            '{"cx_error": {"0-9": 0.5}, "readout_error": [0.04, 0.04, 0.07, 0.03, 0.04]}',
            '{"cx_error": {"2-2": 0.5}, "readout_error": [0.04, 0.04, 0.07, 0.03, 0.04]}',
            '{"cx_error": {"1-0": 0.5, "0-1": 0.1}, "readout_error": [0.04, 0.04, 0.07, 0.03, 0.04]}',
        ],
        ids=[
            "not-an-object",
            "readout-not-a-list",
            "null-cx-probability",
            "sq-shorter-than-readout",
            "cx-qubit-out-of-range",
            "cx-self-pair",
            "cx-pair-given-twice",
        ],
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
        assert "1..12" in refused(capsys, "verify", "--suite", "classical", "--max-n", "13")

    @pytest.mark.parametrize("max_n", ["0", "13"])
    def test_quantum_max_n_out_of_range_is_usage_error(self, capsys, max_n):
        line = refused(capsys, "verify", "--suite", "quantum", "--max-n", max_n)
        assert "quantum suite must be in 1..12" in line

    def test_all_suites_max_n_out_of_range_is_usage_error(self, capsys):
        line = refused(capsys, "verify", "--max-n", "13")
        assert line == "verify: --max-n for the classical/quantum suite must be in 1..12, got 13"

    def test_quantum_suite_passes(self, capsys):
        code, doc, _ = run_cli(capsys, "verify", "--suite", "quantum", "--max-n", "5")
        assert code == 0
        assert all(check["passed"] for check in doc["checks"])


# The CLI contract over the parser's own option table.  Each option draws
# from a pool of good and malformed values named by its dest; an option
# added without a pool fails the test.  Values stay cheap: at most 1024
# shots and 3 trials, and only the verify suites that run in well under a
# second (the others and `all` are tested in test_verify.py).  -h/--help
# is argparse's own and prints usage on stdout, so it is not drawn.
_SLOW_SUITES = ("all", "quantum", "transpile", "noise")


def _option_table() -> dict:
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in commands.choices.items()
    }


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    files = {
        "circuit.qasm": build_full_circuit(SecretString.from_string("011")),
        "garbage.bin": b"\xff\xfe\x00 not text",
        "bad.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[5];\n',
        "empty.qasm": "",
        "line5.json": {"qubits": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        "badgraph.json": {"qubits": 3, "edges": [[0, 1], [1, 9]]},
        "loose.json": {"qubits": 9, "edges": [[0, 1]]},
        "noise.json": NoiseProfile.quito().to_dict(),
        "nan.json": '{"readout_error": [NaN, 0, 0, 0, 0]}',
        "inf.json": {"readout_error": [0.1] * 5, "cx_default": 1e309},
        "range.json": {"readout_error": [1.5, 0, 0, 0, 0]},
        "truncated.json": '{"readout_error": [0.1, ',
    }
    for name, content in files.items():
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, str):
            path.write_text(content)
        elif isinstance(content, dict):
            path.write_text(json.dumps(content))
        else:
            path.write_text(serialize(content))
    return root


def _value_pools(root) -> dict:
    """Good and malformed values, drawn about equally often."""
    files = lambda *names: [str(root / n) for n in names]
    absent = str(root / "absent" / "x")
    mixed = lambda good, bad: st.one_of(st.sampled_from(good), st.sampled_from(bad))
    return {
        "secret": st.one_of(
            st.text("01", min_size=2, max_size=3), st.text("01", max_size=6), st.sampled_from(["2", "01x", "1" * 1025])
        ),
        "out": mixed([str(root / "out.qasm")], [absent, str(root)]),
        "infile": mixed(files("circuit.qasm"), files("bad.qasm", "empty.qasm", "garbage.bin") + [absent, str(root)]),
        "target": mixed(
            ["quito"] + files("line5.json") + ["linear3"],
            ["bogus", absent] + files("badgraph.json", "loose.json", "garbage.bin"),
        ),
        "mapping": mixed(["0,1,2,3", "4,3,2,1"], ["0,1", "-1,0,1,2", "0,x,1,2", "", "0,1,1,2"]),
        "noise": mixed(
            ["default", "quito"] + files("noise.json"),
            [absent, str(root)] + files("nan.json", "inf.json", "range.json", "truncated.json", "line5.json", "garbage.bin"),
        ),
        "trials": mixed(["1", "3"], ["0", "-1", "x", "nan", "1e3"]),
        "shots": mixed(["1", "64", "1024"], ["0", "-5", str(2**32 + 1), "nan", "inf"]),
        "seed": mixed(["0", "7", str(2**70)], ["-1", "x"]),
        "max_n": mixed(["1", "3"], ["0", "13", "-2", "x"]),
    }


@st.composite
def _argv(draw, table, pools):
    command = draw(st.sampled_from(sorted(table)))
    argv = [command]
    for action in table[command]:
        flag = action.option_strings[-1]
        # a missing --suite means all of them; other options are left out
        # at random, a required one now and then
        if action.dest != "suite" and not draw(st.integers(0, 9) if action.required else st.booleans()):
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.choices is not None:
            good = [c for c in action.choices if c not in _SLOW_SUITES]
            value = draw(st.sampled_from(good + ["bogus"]))
        else:
            value = draw(pools[action.dest])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "--opt=0", "stray"])))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def _parses(argv) -> bool:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_on_every_drawn_request(contract_files, data):
    """Every run exits 0, 1 or 2 and writes nothing but one JSON document
    to stdout.  Exit 0 prints that document.  Exit 2 prints nothing on
    stdout; its stderr is one `<command>: ...` line, or, only when the
    parser itself refuses the arguments, argparse's usage and error."""
    argv = data.draw(_argv(_option_table(), _value_pools(contract_files)))
    code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    if out:
        doc = json.loads(out)
        assert doc["command"] == argv[0], argv
    if code == 0:
        assert out, argv
    if code == 2:
        assert out == "", argv
        if not _parses(argv):
            assert err.startswith("usage: lcplearn") and ": error: " in err.splitlines()[-1], argv
        else:
            assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1 and err.endswith("\n"), argv
