"""Command-line behaviour: artifacts, stdout contracts, and exit codes.

Every test drives cli.main() in process with scripted backends, or wire ones
against the loopback endpoint of conftest.py, so runs are deterministic and
touch only pytest temp directories.
"""

import argparse
import functools
import hashlib
import json
import logging
import random
from pathlib import Path

import pytest

from conftest import standard_rules
from qnav import cli, core, evalkit, gateway
from qnav.core import DatasetKind
from qnav.evalkit import QuestionRecord, save_dataset
from qnav.net import DuelingNet, load_checkpoint, save_checkpoint


def scripted_config(**sections):
    """Config document with scripted chat and PRM backends."""
    doc = {
        "gateway": {
            "backend": "scripted",
            "rules": [
                {"contains": r.contains, "response": r.response}
                for r in standard_rules()
            ],
        },
        "prm": {"backend": "scripted", "default": 0.5},
    }
    doc.update(sections)
    return doc


STANDARD_GATEWAY = scripted_config()["gateway"]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def numeric_question(qid, answer):
    return QuestionRecord(
        id=qid,
        question="What is 3 + 4?",
        answer=answer,
        kind=DatasetKind.ELEMENTARY_MATH_NUMERIC,
    )


def write_dataset(tmp_path, records, name="data.jsonl"):
    path = tmp_path / name
    save_dataset(records, path)
    return str(path)


class TestInspect:
    def test_reports_checkpoint_fields(self, tmp_path, capsys):
        net = DuelingNet.initialize(3, (6, 5))
        path = tmp_path / "ck.json"
        path.write_bytes(save_checkpoint(net, seed=9, episodes=40))
        assert cli.main(["inspect", "--checkpoint", str(path)]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "widths: 6x5"
        assert lines[1] == f"parameters: {net.num_parameters}"
        assert lines[2] == "episodes: 40"
        assert lines[3] == "seed: 9"

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code = cli.main(["inspect", "--checkpoint", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_garbage_payload_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        path.write_bytes(b"not a checkpoint")
        assert cli.main(["inspect", "--checkpoint", str(path)]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestMineHard:
    def test_keeps_only_wrongly_answered_questions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        # scripted reply is always "The answer is 7.": solves "7", misses "9"
        data = write_dataset(
            tmp_path, [numeric_question("easy", "7"), numeric_question("hard", "9")]
        )
        out = tmp_path / "mine"
        code = cli.main(
            ["mine-hard", "--config", cfg, "--dataset", data, "--out-dir", str(out)]
        )
        assert code == cli.EXIT_OK

        kept = evalkit.load_dataset(out / "hard_set.jsonl")
        assert [q.id for q in kept] == ["hard"]

        summary = json.loads((out / "mining_summary.json").read_text())
        assert summary["total"] == 2
        assert summary["hard"] == 1
        assert summary["proportion"] == 0.5
        assert summary["undetermined"] == []
        assert summary["usage"]["output_tokens"] > 0

        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["command"] == "mine-hard"
        assert resolved["gateway"]["backend"] == "scripted"

        stdout = capsys.readouterr().out
        assert "kept 1 of 2 questions (50.00% hard, 0 undetermined)" in stdout
        assert f"artifacts in {out}" in stdout

    def test_requires_a_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        code = cli.main(["mine-hard", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "mine-hard needs --dataset" in capsys.readouterr().err

    def test_missing_dataset_file_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        code = cli.main(
            [
                "mine-hard",
                "--config",
                cfg,
                "--dataset",
                str(tmp_path / "missing.jsonl"),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_gateway_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise gateway.GatewayRetryError("endpoint kept failing")

        monkeypatch.setattr(evalkit, "mine_hard", boom)
        cfg = write_config(tmp_path, scripted_config())
        data = write_dataset(tmp_path, [numeric_question("q", "7")])
        code = cli.main(
            ["mine-hard", "--config", cfg, "--dataset", data, "--out-dir", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_GATEWAY
        assert "gateway error" in capsys.readouterr().err


class TestConfigHandling:
    def test_unreadable_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["mine-hard", "--config", str(tmp_path / "nope.json"), "--dataset", "x"]
        )
        assert code == cli.EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{nope", encoding="utf-8")
        code = cli.main(["mine-hard", "--config", str(path), "--dataset", "x"])
        assert code == cli.EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code = cli.main(["mine-hard", "--config", str(path), "--dataset", "x"])
        assert code == cli.EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_unknown_gateway_backend(self, tmp_path, dataset_path, capsys):
        cfg = write_config(tmp_path, {"gateway": {"backend": "telnet"}})
        code = cli.main(
            [
                "mine-hard",
                "--config",
                cfg,
                "--dataset",
                str(dataset_path),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == cli.EXIT_CONFIG
        assert "unknown gateway backend" in capsys.readouterr().err

    def test_openai_backend_requires_base_url(self, tmp_path, dataset_path, capsys):
        code = cli.main(
            [
                "mine-hard",
                "--model",
                "test-model",
                "--dataset",
                str(dataset_path),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == cli.EXIT_CONFIG
        assert "gateway config missing 'base_url'" in capsys.readouterr().err

    def test_unknown_prm_backend(self, tmp_path, capsys):
        doc = scripted_config(prm={"backend": "oracle"})
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("q", "9")])
        code = cli.main(
            [
                "train",
                "--config",
                cfg,
                "--hard-set",
                data,
                "--episodes",
                "1",
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == cli.EXIT_CONFIG
        assert "unknown prm backend" in capsys.readouterr().err

    def test_wire_prm_keeps_configured_retry_settings(self):
        prm = cli.build_prm_backend(
            {
                "backend": "wire",
                "base_url": "http://localhost:9",
                "max_attempts": 5,
                "backoff_base_s": 0.01,
            },
            chat=gateway.ScriptedChatBackend(),
        )
        assert isinstance(prm, gateway.WirePrm)
        assert prm._endpoint.cfg.max_attempts == 5
        assert prm._endpoint.cfg.backoff_base_s == 0.01

    @pytest.mark.parametrize("build, section", [
        (cli.build_chat_backend, {"backend": "openai", "base_url": "http://localhost:9", "model": "m"}),
        (functools.partial(cli.build_prm_backend, chat=gateway.ScriptedChatBackend()),
         {"backend": "wire", "base_url": "http://localhost:9"}),
    ], ids=["gateway", "prm"])
    @pytest.mark.parametrize("bad", [
        {"max_attempts": 0},
        {"timeout_s": 0},
        {"backoff_base_s": -1},
        {"max_attempts": "x"},
        {"retries": 2},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_wire_backends_reject_bad_settings(self, build, section, bad):
        with pytest.raises(cli.ConfigError):
            build({**section, **bad})

    def test_zero_in_flight_slots_is_a_config_error(self):
        with pytest.raises(cli.ConfigError, match="max_in_flight"):
            cli.build_chat_backend(
                {"backend": "openai", "base_url": "http://localhost:9", "model": "m", "max_in_flight": 0}
            )

    @pytest.mark.parametrize("sections, names", [
        pytest.param({"trainer": {"gamma": "abc"}}, "trainer.gamma", id="trainer.gamma"),
        pytest.param({"trainer": {"gama": 0.5}}, "trainer.gama", id="trainer.gama"),
        pytest.param({"trainer": {"seed": 3}}, "trainer.seed", id="trainer.seed"),
        pytest.param({"trainer": {"widths": [8]}}, "trainer.widths", id="trainer.widths"),
        pytest.param({"trainer": {"batch_size": 2.5}}, "trainer.batch_size", id="trainer.batch_size"),
        pytest.param({"trainer": {"widths": [0, 4]}}, "trainer: widths must be positive, got [0, 4]",
                     id="trainer.widths-zero"),
        pytest.param({"env": {"self_eval_retry": -1}}, "env: self_eval_retry must not be negative, got -1",
                     id="env.self_eval_retry-negative"),
        pytest.param({"env": {"subtask_cap": 0}}, "env: subtask_cap must be positive, got 0",
                     id="env.subtask_cap-zero"),
        pytest.param({"env": {"subtask_cap": -1}}, "env: subtask_cap must be positive, got -1",
                     id="env.subtask_cap-negative"),
        pytest.param({"env": {"max_action": 2}}, "env.max_action", id="env.max_action"),
        pytest.param({"env": {"temperature": "hot"}}, "env.temperature", id="env.temperature"),
        pytest.param({"env": []}, "env must be a JSON object", id="env"),
        pytest.param({"prm": {"backend": "wire", "base_url": "http://localhost:9", "backoff_base_s": 0.0,
                              "max_attempts": "x"}}, "prm.max_attempts", id="prm.max_attempts"),
        pytest.param({"prm": {"backend": "wire", "base_url": "http://localhost:9", "backoff_base_s": 0.0,
                              "max_attempts": 1, "retries": 2}}, "prm.retries", id="prm.retries"),
        pytest.param({"prm": {"backend": "scripted", "defualt": 0.9}}, "prm.defualt", id="prm.defualt"),
        pytest.param({"prm": {"backend": "scripted", "rules": [["a"]]}}, "prm.rules", id="prm.rules"),
        pytest.param({"prm": {"backend": "scripted", "default": "high"}}, "prm.default", id="prm.default"),
        pytest.param({"gateway": {"backend": "scripted", "rules": [{"response": "x"}]}}, "gateway.rules",
                     id="gateway.rules"),
        pytest.param({"gateway": {"backend": "scripted", "rules": [{"contains": "a", "response": 5}]}},
                     "gateway.rules[0].response", id="gateway.rules.response"),
        pytest.param({"gateway": {"backend": "scripted", "rulez": []}}, "gateway.rulez", id="gateway.rulez"),
        pytest.param({"gateway": {"backend": "scripted", "strict": "no"}}, "gateway.strict", id="gateway.strict"),
        # The scripted gateway answers from rules only.
        pytest.param({"gateway": {**STANDARD_GATEWAY, "strict": True}}, "gateway.strict: unknown key",
                     id="gateway.strict-removed"),
        pytest.param({"gateway": {**STANDARD_GATEWAY, "script": ["The answer is 7."]}},
                     "gateway.script: unknown key", id="gateway.script"),
        pytest.param({"gateway": {**STANDARD_GATEWAY, "default_response": "The answer is 7."}},
                     "gateway.default_response: unknown key", id="gateway.default_response"),
        pytest.param({"gateway": {"backend": "scripted", "rules": [{"contains": "", "response": []}]}},
                     "gateway.rules[0]: response must not be empty", id="gateway.rules.response-empty"),
    ])
    def test_bad_section_value_is_a_config_error(self, tmp_path, capsys, sections, names):
        cfg = write_config(tmp_path, scripted_config(**sections))
        data = write_dataset(tmp_path, [numeric_question("q", "9")])
        code = cli.main(
            ["train", "--config", cfg, "--hard-set", data, "--episodes", "1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_CONFIG
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("command, top, key", [
        ("eval", {"trials": "abc"}, "trials"),
        ("eval", {"trials": 0}, "trials"),
        ("eval", {"seed": "x"}, "seed"),
        ("train", {"seed": 1.5}, "seed"),
        ("synth-train", {"seeds": [0, 1]}, "seeds"),
        ("synth-train", {"seeds": "0,x"}, "seeds"),
        ("synth-train", {"sharpness": "steep"}, "sharpness"),
        ("synth-train", {"states": 0}, "states"),
        ("synth-train", {"sharpness": 5}, "sharpness"),
        ("train", {"seed": -1}, "seed"),
        ("eval", {"seed": -3}, "seed"),
        ("synth-train", {"seeds": "0,-1"}, "seeds"),
        ("synth-train", {"mdp_seed": -1}, "mdp_seed"),
    ], ids=["trials", "trials-zero", "seed-string", "seed-fraction", "seeds-list", "seeds-item", "sharpness",
            "states-range", "sharpness-range", "seed-negative", "eval-seed-negative", "seeds-negative",
            "mdp-seed-negative"])
    def test_bad_top_level_value_is_a_config_error(self, tmp_path, capsys, command, top, key):
        cfg = write_config(tmp_path, scripted_config(**top))
        data = write_dataset(tmp_path, [numeric_question("q", "7")])
        inputs = {
            "eval": ["--dataset", data, "--policy", "fixed-sequence"],
            "train": ["--hard-set", data, "--episodes", "1"],
            "synth-train": ["--episodes", "1"],
        }[command]
        code = cli.main([command, "--config", cfg, *inputs, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        ("eval", {"trials": True}, "trials"),
        ("synth-train", {"threshold": False}, "threshold"),
        ("train", {"trainer": {"episodes": True}}, "trainer.episodes"),
        ("train", {"env": {"temperature": True}}, "env.temperature"),
    ], ids=["trials", "threshold", "trainer.episodes", "env.temperature"])
    def test_json_boolean_for_a_number_is_a_config_error(self, tmp_path, capsys, command, doc, key):
        # int(True) is 1: without the check, {"trials": true} would run one trial.
        cfg = write_config(tmp_path, scripted_config(**doc))
        data = write_dataset(tmp_path, [numeric_question("q", "7")])
        inputs = {
            "eval": ["--dataset", data, "--policy", "fixed-sequence"],
            "train": ["--hard-set", data],
            "synth-train": ["--episodes", "1"],
        }[command]
        code = cli.main([command, "--config", cfg, *inputs, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"{key}: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine-hard", "train", "eval", "synth-train"])
    @pytest.mark.parametrize("key", ["trails", "episodes"])  # a typo; a trainer key at the top level
    def test_unknown_top_level_key_is_a_config_error(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path, scripted_config(**{key: 5}))
        code = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"config error: {key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_command_accepts_the_settings_of_the_others(self, tmp_path):
        data = write_dataset(tmp_path, [numeric_question("q", "9")])
        cfg = write_config(tmp_path, scripted_config(
            command="eval", dataset=data, hard_set=data, policy="fixed-sequence", checkpoint=None, trials=1,
            states=4, sharpness=0.7, mdp_seed=0, threshold=0.0, min_pass=1, seeds="0", out_dir=None,
            trainer={"episodes": 2, "batch_size": 4, "buffer_capacity": 4},
        ))
        for command in ("mine-hard", "train", "eval", "synth-train"):
            out = str(tmp_path / command)
            assert cli.main([command, "--config", cfg, "--out-dir", out]) == cli.EXIT_OK, command

    def test_negative_trials_flag_is_a_config_error(self, tmp_path, capsys):
        data = write_dataset(tmp_path, [numeric_question("q", "7")])
        code = cli.main([
            "eval", "--config", write_config(tmp_path, scripted_config()), "--dataset", data,
            "--policy", "fixed-sequence", "--trials", "-1", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_CONFIG
        assert "trials: " in capsys.readouterr().err

    def test_unknown_enabled_block_name(self, tmp_path, capsys):
        doc = scripted_config(
            env={"enabled_blocks": ["REASON_ONE_STEP", "TERMINATE", "PONDER"]}
        )
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("q", "9")])
        code = cli.main(
            [
                "train",
                "--config",
                cfg,
                "--hard-set",
                data,
                "--episodes",
                "1",
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == cli.EXIT_CONFIG
        assert "unknown action name" in capsys.readouterr().err

    def test_invalid_trainer_value(self, tmp_path, capsys):
        doc = scripted_config(trainer={"gamma": 1.5})
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("q", "9")])
        code = cli.main(
            [
                "train",
                "--config",
                cfg,
                "--hard-set",
                data,
                "--episodes",
                "1",
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == cli.EXIT_CONFIG

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_unknown_policy_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "--policy", "oracle"])
        assert excinfo.value.code == 2


class TestParser:
    """Each subcommand's flags as the parser builds them: their option
    strings and types (argparse reads an untyped flag as a str), and the
    --policy choices."""

    FLAGS = {
        "mine-hard": {"--config": "str", "--out-dir": "str", "--seed": "int", "--base-url": "str",
                      "--model": "str", "--api-key-env": "str", "--dataset": "str"},
        "train": {"--config": "str", "--out-dir": "str", "--seed": "int", "--base-url": "str",
                  "--model": "str", "--api-key-env": "str", "--hard-set": "str", "--episodes": "int"},
        "eval": {"--config": "str", "--out-dir": "str", "--seed": "int", "--base-url": "str",
                 "--model": "str", "--api-key-env": "str", "--dataset": "str", "--policy": "str",
                 "--checkpoint": "str", "--trials": "int"},
        "synth-train": {"--config": "str", "--out-dir": "str", "--states": "int", "--sharpness": "float",
                        "--episodes": "int", "--seeds": "str", "--mdp-seed": "int", "--threshold": "float",
                        "--min-pass": "int"},
        "inspect": {"--checkpoint": "str"},
    }

    @staticmethod
    def options(command):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return {
            opt: action
            for action in subparsers.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings
        }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_subcommand_takes_its_pinned_flags(self, command):
        types = {opt: (action.type or str).__name__ for opt, action in self.options(command).items()}
        assert types == self.FLAGS[command]

    def test_policy_choices(self):
        assert list(self.options("eval")["--policy"].choices) == ["nav", "fixed-sequence", "random"]

    def test_abbreviated_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "--data", "x"])
        assert excinfo.value.code == 2

    def test_gateway_flags_set_their_section_keys(self):
        parse = cli.build_parser().parse_args
        args = parse(["mine-hard", "--base-url", "http://x/v1", "--model", "m", "--api-key-env", "KEY"])
        assert cli._section(args, {}, "gateway") == {
            "backend": "openai", "base_url": "http://x/v1", "model": "m", "api_key_env": "KEY",
        }
        # --api-key-env alone leaves the backend to the file.
        args = parse(["mine-hard", "--api-key-env", "KEY"])
        assert cli._section(args, {"gateway": {"base_url": "u"}}, "gateway") == {"base_url": "u", "api_key_env": "KEY"}


class TestRejectedCredentials:
    """A 401 from either endpoint ends mine-hard, train and eval with exit 4
    before any artifact is written, so no output directory is made."""

    WIRE_GATEWAY = {"backend": "openai", "model": "m"}
    WIRE_PRM = {"backend": "wire"}

    @pytest.fixture(autouse=True)
    def deny(self, loopback):
        loopback.handler = lambda posted: (401, "")
        self.base_urls = {"gateway": loopback.url + "/v1", "prm": loopback.url}

    @pytest.mark.parametrize("argv, sections", [
        (["mine-hard"], {"gateway": WIRE_GATEWAY}),
        (["train", "--episodes", "3"], {"gateway": WIRE_GATEWAY}),
        (["train", "--episodes", "3"], {"prm": WIRE_PRM}),
        (["eval", "--policy", "fixed-sequence"], {"gateway": WIRE_GATEWAY}),
        (["eval", "--policy", "fixed-sequence"], {"prm": WIRE_PRM}),
    ], ids=["mine-hard", "train-chat", "train-prm", "eval-chat", "eval-prm"])
    def test_exits_with_the_gateway_code_and_writes_nothing(self, tmp_path, capsys, argv, sections):
        sections = {name: {**section, "base_url": self.base_urls[name]} for name, section in sections.items()}
        cfg = write_config(tmp_path, scripted_config(**sections))
        data = write_dataset(tmp_path, [numeric_question("q1", "7"), numeric_question("q2", "9")])
        data_flag = "--hard-set" if argv[0] == "train" else "--dataset"
        out = tmp_path / "o"
        code = cli.main([*argv, "--config", cfg, data_flag, data, "--out-dir", str(out)])
        assert code == cli.EXIT_GATEWAY
        assert "rejected credentials" in capsys.readouterr().err
        assert not out.exists()


class TestUnparseableBaseUrl:
    """A gateway.base_url or a wire prm.base_url that does not parse is a
    config error naming the key, before any artifact is written."""

    WIRE = {"gateway": {"backend": "openai", "model": "m"}, "prm": {"backend": "wire"}}

    @pytest.mark.parametrize("argv, name, base_url", [
        (["mine-hard"], "gateway", "unit.test/v1"),
        (["train", "--episodes", "3"], "gateway", "http://"),
        (["eval", "--policy", "fixed-sequence"], "gateway", "htp://x/v1"),
        (["train", "--episodes", "3"], "prm", "nope"),
        (["eval", "--policy", "fixed-sequence"], "prm", "http:///v1"),
    ], ids=["mine-hard-gateway", "train-gateway", "eval-gateway", "train-prm", "eval-prm"])
    def test_exits_with_the_config_code_and_writes_nothing(self, tmp_path, capsys, argv, name, base_url):
        cfg = write_config(tmp_path, scripted_config(**{name: {**self.WIRE[name], "base_url": base_url}}))
        data = write_dataset(tmp_path, [numeric_question("q1", "7")])
        data_flag = "--hard-set" if argv[0] == "train" else "--dataset"
        out = tmp_path / "o"
        code = cli.main([*argv, "--config", cfg, data_flag, data, "--out-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}: base_url must be an http:// or https:// URL with a host")
        assert repr(base_url) in err
        assert not out.exists()


class TestNothingDone:
    """A run in which every chat call failed exits 4 and keeps its other
    artifacts as the evidence; a run with some success still exits 0."""

    UNMATCHED = {"backend": "scripted", "rules": [{"contains": "no prompt holds this", "response": "x"}]}

    def run(self, tmp_path, argv, records, gateway_cfg=UNMATCHED):
        cfg = write_config(tmp_path, scripted_config(gateway=gateway_cfg))
        data_flag = "--hard-set" if argv[0] == "train" else "--dataset"
        out = tmp_path / "o"
        code = cli.main([*argv, "--config", cfg, data_flag, write_dataset(tmp_path, records), "--out-dir", str(out)])
        return code, out

    def test_train_with_no_env_step_writes_no_final_checkpoint(self, tmp_path, capsys):
        # 500 episodes passes an epoch checkpoint, which holds no untrained net either.
        for episodes in (5, 500):
            root = tmp_path / str(episodes)
            root.mkdir()
            code, out = self.run(root, ["train", "--episodes", str(episodes)], [numeric_question("q", "9")])
            assert code == cli.EXIT_GATEWAY
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"gateway error: no episode of {episodes} took a step")
            assert not (out / "checkpoint_final.json").exists()
            assert not list(out.glob("checkpoint_ep*.json"))
            assert len((out / "reward_curve.tsv").read_text().splitlines()) == 1 + episodes
            assert json.loads((out / "usage.json").read_text())["calls"] == 0
            assert (out / "resolved_config.json").exists()

    def test_train_against_a_dead_wire_endpoint(self, tmp_path, capsys, loopback):
        # 12 episodes at the default cap of 4 run K = 10 at once on pool threads;
        # each fails its first chat call after 3 POSTs, so none takes a step.
        loopback.handler = lambda posted: (503, "")
        posts = loopback.received
        # The client's sleep is bound at import: a zero backoff keeps the retries instant.
        dead = {"backend": "openai", "base_url": loopback.url + "/v1", "model": "m", "backoff_base_s": 0}
        code, out = self.run(tmp_path, ["train", "--episodes", "12"], [numeric_question("q", "9")], dead)
        assert code == cli.EXIT_GATEWAY
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gateway error: no episode of 12 took a step")
        assert len(posts) == 12 * 3
        assert not (out / "checkpoint_final.json").exists()
        assert not list(out.glob("checkpoint_ep*.json"))
        assert json.loads((out / "usage.json").read_text())["calls"] == 0

    def test_eval_with_every_trial_failed(self, tmp_path, capsys):
        code, out = self.run(tmp_path, ["eval", "--policy", "fixed-sequence", "--trials", "2"],
                             [numeric_question("q1", "7"), numeric_question("q2", "9")])
        assert code == cli.EXIT_GATEWAY
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gateway error: all 4 trials failed")
        report = json.loads((out / "report.json").read_text())
        assert report["correct"] == 0 and report["total"] == 2
        assert "failed_trials" not in report  # counted per question only
        assert [q["failed_trials"] for q in report["questions"]] == [2, 2]
        assert (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("answered, code", [((), cli.EXIT_GATEWAY), (("3 + 4",), cli.EXIT_OK)],
                             ids=["all-undetermined", "one-undetermined"])
    def test_mine_hard_with_every_question_undetermined(self, tmp_path, capsys, answered, code):
        rules = [{"contains": c, "response": "The answer is 7."} for c in answered]
        records = [numeric_question("q1", "7"), QuestionRecord(
            id="q2", question="What is 5 + 6?", answer="11", kind=DatasetKind.ELEMENTARY_MATH_NUMERIC)]
        got, out = self.run(tmp_path, ["mine-hard"], records, {"backend": "scripted", "rules": rules})
        assert got == code
        summary = json.loads((out / "mining_summary.json").read_text())
        assert summary["undetermined"] == ["q1", "q2"][len(answered):]
        err = capsys.readouterr().err.splitlines()
        if code == cli.EXIT_GATEWAY:
            assert err == [f"gateway error: all 2 questions undetermined; artifacts in {out}"]
        else:
            assert not err


class TestTrain:
    def test_trains_and_writes_artifacts(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="qnav.dqn")
        doc = scripted_config(
            seed=5,
            trainer={
                "episodes": 40,
                "batch_size": 8,
                "buffer_capacity": 16,
                "widths": [6, 5],
            },
        )
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        out = tmp_path / "train"
        code = cli.main(
            ["train", "--config", cfg, "--hard-set", data, "--episodes", "12", "--out-dir", str(out)]
        )
        assert code == cli.EXIT_OK

        net, meta = load_checkpoint((out / "checkpoint_final.json").read_bytes())
        assert net.widths == (6, 5)
        assert meta["episodes"] == 12
        assert meta["seed"] == 5

        curve = (out / "reward_curve.tsv").read_text().splitlines()
        assert curve[0].split("\t")[0] == "episode"
        assert len(curve) == 1 + 12

        usage = json.loads((out / "usage.json").read_text())
        assert usage["calls"] > 0
        assert usage["input_tokens"] > 0

        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["command"] == "train"
        # the --episodes flag beats the config file value
        assert resolved["trainer"]["episodes"] == 12
        assert resolved["trainer"]["widths"] == [6, 5]
        assert resolved["env"]["max_actions"] == 5

        assert "episodes in flight: 1" in caplog.messages  # a scripted backend serves one call at a time
        stdout = capsys.readouterr().out
        assert "trained 12 episodes (seed 5); mean return " in stdout
        assert not list(out.glob("checkpoint_ep*.json"))

    def test_epoch_checkpoints_hold_the_net_after_their_episode(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, scripted_config(trainer={"batch_size": 4, "buffer_capacity": 8}))
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        five, four = tmp_path / "five", tmp_path / "four"
        for out, episodes in ((five, 5), (four, 4)):
            argv = ["train", "--config", cfg, "--hard-set", data, "--episodes", str(episodes), "--out-dir", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
        assert sorted(p.name for p in five.glob("checkpoint_ep*.json")) == [
            "checkpoint_ep00002.json", "checkpoint_ep00004.json"]
        # A scripted backend runs one episode at a time (K = 1), so episode 4's
        # checkpoint is the net a 4-episode run ends with, and it has learned since episode 2.
        ep4 = (five / "checkpoint_ep00004.json").read_bytes()
        assert ep4 == (four / "checkpoint_final.json").read_bytes()
        assert ep4 != (five / "checkpoint_ep00002.json").read_bytes()

    def test_wire_prm_pools_a_connection_per_episode_in_flight(self, tmp_path, monkeypatch):
        # A chat cap of 6 trains 3 * 6 - 2 = 16 episodes at once, each with a PRM call in flight.
        class Stop(Exception):
            pass

        envs = []

        def run_training(env_factory, cfg, on_episode=None):
            envs.append(env_factory(random.Random(0)))
            raise Stop

        monkeypatch.setattr(cli.dqn, "run_training", run_training)
        cfg = write_config(tmp_path, {
            "gateway": {"backend": "openai", "base_url": "http://localhost:9/v1", "model": "m", "max_in_flight": 6},
            "prm": {"backend": "wire", "base_url": "http://localhost:9"},
        })
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        with pytest.raises(Stop):
            cli.main(["train", "--config", cfg, "--hard-set", data, "--out-dir", str(tmp_path / "o")])
        (env,) = envs
        assert env.max_in_flight == 16
        adapter = env.prm._endpoint.session.get_adapter("http://localhost:9/score")
        assert adapter.poolmanager.connection_pool_kw["maxsize"] >= 16

    def test_resolved_config_reproduces_the_run(self, tmp_path):
        doc = scripted_config(
            seed=3,
            trainer={"episodes": 15, "batch_size": 4, "buffer_capacity": 8, "widths": [5, 4], "gamma": 0.8},
            env={"max_actions": 4, "enabled_blocks": ["TERMINATE", "REASON_ONE_STEP", "DEBATE"]},
        )
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["train", "--config", cfg, "--hard-set", data, "--out-dir", str(first)]) == cli.EXIT_OK
        resolved = str(first / "resolved_config.json")
        assert cli.main(["train", "--config", resolved, "--out-dir", str(second)]) == cli.EXIT_OK

        again = json.loads((second / "resolved_config.json").read_text())
        assert again.pop("out_dir") == str(second)
        expected = json.loads((first / "resolved_config.json").read_text())
        expected.pop("out_dir")
        assert again == expected
        assert (second / "checkpoint_final.json").read_bytes() == (first / "checkpoint_final.json").read_bytes()

    def test_requires_a_hard_set(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        code = cli.main(["train", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "train needs --hard-set" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"gateway": STANDARD_GATEWAY}, {"gateway": STANDARD_GATEWAY, "prm": {}},
    ], ids=["missing", "empty"])
    def test_requires_a_prm_section(self, tmp_path, capsys, doc):
        # Without one, every reward would be a scripted PRM's constant default.
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        out = tmp_path / "o"
        code = cli.main(["train", "--config", cfg, "--hard-set", data, "--out-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "prm: train needs a prm section" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_hard_set_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = cli.main(
            ["train", "--config", cfg, "--hard-set", str(empty), "--out-dir", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_DATA
        assert "hard set is empty" in capsys.readouterr().err


class TestCrashSafeArtifacts:
    """A write that fails midway keeps the previous artifact and leaves no temp file."""

    def test_train_whose_checkpoint_write_fails_keeps_the_previous_one(self, tmp_path, capsys, monkeypatch):
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        out = tmp_path / "train"

        def train(seed):
            cfg = write_config(tmp_path, scripted_config(seed=seed, trainer={"batch_size": 4, "buffer_capacity": 8}))
            return cli.main(["train", "--config", cfg, "--hard-set", data, "--episodes", "3", "--out-dir", str(out)])

        assert train(1) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(core.os, "fsync", disk_full)
        assert train(2) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestEval:
    def test_fixed_sequence_policy_scores_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        data = write_dataset(tmp_path, [numeric_question("q1", "7")])
        out = tmp_path / "eval"
        code = cli.main(
            [
                "eval",
                "--config",
                cfg,
                "--dataset",
                data,
                "--policy",
                "fixed-sequence",
                "--trials",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert code == cli.EXIT_OK

        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["correct"] == 1
        assert report["total"] == 1
        assert report["questions"][0]["final_answer"] == "7"
        assert report["questions"][0]["trial_answers"] == ["7", "7"]
        # scripted backends are offline, so wall time is zeroed
        assert report["questions"][0]["wall_time_s"] == 0.0

        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["policy"] == "fixed-sequence"
        assert resolved["trials"] == 2

        assert "accuracy 1/1 = 1.0000" in capsys.readouterr().out

    def test_nav_policy_runs_from_checkpoint(self, tmp_path, capsys):
        net = DuelingNet.initialize(0, (6, 5))
        ckpt = tmp_path / "ck.json"
        ckpt.write_bytes(save_checkpoint(net, seed=0, episodes=0))
        cfg = write_config(tmp_path, scripted_config())
        data = write_dataset(tmp_path, [numeric_question("q1", "7")])
        out = tmp_path / "eval"
        code = cli.main(
            [
                "eval",
                "--config",
                cfg,
                "--dataset",
                data,
                "--policy",
                "nav",
                "--checkpoint",
                str(ckpt),
                "--trials",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["correct"] == 1
        assert "accuracy 1/1 = 1.0000" in capsys.readouterr().out

    def test_nav_policy_requires_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        data = write_dataset(tmp_path, [numeric_question("q1", "7")])
        code = cli.main(
            ["eval", "--config", cfg, "--dataset", data, "--policy", "nav", "--out-dir", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_CONFIG
        assert "needs --checkpoint" in capsys.readouterr().err

    def test_unknown_policy_in_config_file(self, tmp_path, capsys):
        doc = scripted_config(policy="oracle")
        cfg = write_config(tmp_path, doc)
        data = write_dataset(tmp_path, [numeric_question("q1", "7")])
        code = cli.main(
            ["eval", "--config", cfg, "--dataset", data, "--out-dir", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_CONFIG
        assert "unknown policy" in capsys.readouterr().err

    def test_requires_a_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scripted_config())
        code = cli.main(["eval", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "eval needs --dataset" in capsys.readouterr().err

    def test_wire_prm_pools_a_connection_per_trial_in_flight(self, tmp_path, monkeypatch):
        # A chat cap of 12 runs 3 * 12 - 2 = 34 trials at once, each with a PRM call in flight.
        class Stop(Exception):
            pass

        prms = []

        def evaluate(policy, dataset, chat, prm, cfg, *, offline):
            prms.append(prm)
            raise Stop

        monkeypatch.setattr(cli.evalkit, "evaluate", evaluate)
        cfg = write_config(tmp_path, {
            "gateway": {"backend": "openai", "base_url": "http://localhost:9/v1", "model": "m", "max_in_flight": 12},
            "prm": {"backend": "wire", "base_url": "http://localhost:9"},
        })
        data = write_dataset(tmp_path, [numeric_question("q1", "7")])
        with pytest.raises(Stop):
            cli.main(["eval", "--config", cfg, "--dataset", data, "--policy", "fixed-sequence",
                      "--out-dir", str(tmp_path / "o")])
        (prm,) = prms
        adapter = prm._endpoint.session.get_adapter("http://localhost:9/score")
        assert adapter.poolmanager.connection_pool_kw["maxsize"] >= 34


class TestAnswerBeyondFloatRange:
    """A boxed reply of 1e309 is an answer that matches no finite one; the run ends normally."""

    def run(self, tmp_path, command, *flags):
        rules = [{"contains": r.contains, "response": "The answer is \\boxed{1e309}." if "boxed" in r.contains
                  else r.response} for r in standard_rules()]
        cfg = write_config(tmp_path, scripted_config(gateway={"backend": "scripted", "rules": rules}))
        data = write_dataset(tmp_path, [QuestionRecord("q", "What is 3 + 4?", "7", DatasetKind.MATH_BOXED)])
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--dataset", data, *flags, "--out-dir", str(out)]) == cli.EXIT_OK
        return out

    def test_eval_votes_on_it(self, tmp_path):
        out = self.run(tmp_path, "eval", "--policy", "fixed-sequence", "--trials", "2")
        q = json.loads((out / "report.json").read_text())["questions"][0]
        assert (q["final_answer"], q["trial_answers"], q["correct"]) == ("1e309", ["1e309", "1e309"], False)

    def test_mine_hard_keeps_its_question(self, tmp_path):
        out = self.run(tmp_path, "mine-hard")
        assert [r.id for r in evalkit.load_dataset(out / "hard_set.jsonl")] == ["q"]


class TestSynthTrain:
    def test_passes_and_writes_results(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = cli.main(
            [
                "synth-train",
                "--states",
                "4",
                "--episodes",
                "150",
                "--seeds",
                "0",
                "--threshold",
                "0.0",
                "--out-dir",
                str(out),
            ]
        )
        assert code == cli.EXIT_OK

        results = json.loads((out / "synth_results.json").read_text())
        assert results["verdict"] is True
        assert results["passed"] == 1
        assert results["seeds"][0]["pass"] is True
        assert results["seeds"][0]["optimal_return"] > 0.0
        assert (out / "reward_curve_seed0.tsv").exists()

        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["command"] == "synth-train"
        assert resolved["states"] == 4

        stdout = capsys.readouterr().out
        assert "seed 0: optimal " in stdout
        assert "1/1 seeds passed (need 1): PASS" in stdout

    def test_unreachable_threshold_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = cli.main(
            [
                "synth-train",
                "--states",
                "4",
                "--episodes",
                "30",
                "--seeds",
                "0",
                "--threshold",
                "1.01",
                "--out-dir",
                str(out),
            ]
        )
        assert code == cli.EXIT_VERIFY
        results = json.loads((out / "synth_results.json").read_text())
        assert results["verdict"] is False
        assert results["passed"] == 0
        assert "0/1 seeds passed (need 1): FAIL" in capsys.readouterr().out

    def test_default_min_pass_allows_one_failure(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = cli.main(
            [
                "synth-train",
                "--states",
                "4",
                "--episodes",
                "30",
                "--seeds",
                "0,1",
                "--threshold",
                "0.0",
                "--out-dir",
                str(out),
            ]
        )
        assert code == cli.EXIT_OK
        assert (out / "reward_curve_seed1.tsv").exists()
        assert "2/2 seeds passed (need 1): PASS" in capsys.readouterr().out

    def test_states_beyond_every_state_vector_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = cli.main(["synth-train", "--states", "16385", "--episodes", "1", "--out-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "config error: n_states: must lie in [2, 16384], got 16385" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_at_least_one_seed(self, tmp_path, capsys):
        code = cli.main(["synth-train", "--seeds", ",", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "at least one seed" in capsys.readouterr().err

    def test_seed_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["synth-train", "--seed", "-7", "--episodes", "1", "--out-dir", str(tmp_path / "o")])
        assert excinfo.value.code == 2

    def test_top_level_seed_points_to_seeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 3})
        code = cli.main(["synth-train", "--config", cfg, "--episodes", "1", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed: " in err and "seeds" in err
        assert not (tmp_path / "o").exists()

    def test_accepts_another_commands_resolved_config(self, tmp_path):
        # train's resolved_config.json records train's seed, which synth-train does not read.
        cfg = write_config(tmp_path, scripted_config(seed=4, trainer={"episodes": 3, "batch_size": 2, "widths": [5, 4]}))
        data = write_dataset(tmp_path, [numeric_question("hard", "9")])
        first = tmp_path / "train"
        assert cli.main(["train", "--config", cfg, "--hard-set", data, "--out-dir", str(first)]) == cli.EXIT_OK
        resolved = str(first / "resolved_config.json")
        out = tmp_path / "synth"
        code = cli.main(["synth-train", "--config", resolved, "--episodes", "1", "--out-dir", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFY)  # one episode need not pass
        synth = json.loads((out / "resolved_config.json").read_text())
        assert synth["command"] == "synth-train" and "seed" not in synth
        assert synth["trainer"]["widths"] == [5, 4]


class TestGoldenArtifacts:
    """The scripted mine-hard -> train -> eval -> synth-train pipeline, run
    with relative paths, writes exactly these bytes. A change to how any
    artifact is serialised shows here as a changed digest."""

    RECORDS = (
        QuestionRecord("q1", "What is 3 + 4?", "7", DatasetKind.ELEMENTARY_MATH_NUMERIC),
        QuestionRecord("q2", "What is 3 + 4, plus two?", "9", DatasetKind.ELEMENTARY_MATH_NUMERIC),
        QuestionRecord("q3", "Simplify 14/7.", "2", DatasetKind.MATH_BOXED),
        QuestionRecord("q4", "Pick the sum of 3 and 4: (A) 6 (B) 7 (C) 8.", "B", DatasetKind.MULTIPLE_CHOICE),
        QuestionRecord("q5", "Is 7 even?", "no", DatasetKind.YES_NO),
    )

    DIGESTS = {
        "eval-fixed/report.json": "22f77b2cba0fa4319d2fe2731650d2fb804d159a2affcdbd30412b5220c6cf80",
        "eval-fixed/resolved_config.json": "dbeee6a5aa338139d253197270b242671d389b129a306d63e8abc1bd160c032b",
        "eval-nav/report.json": "2964a260b97990e9563884c17d1db412a59a7f5723847f8346592cd6e8f861b9",
        "eval-nav/resolved_config.json": "d4ac6b4a821ac4c7ea120e2c656b7aa81daafc8bb0548fbbfa0b9f80ca66c3ee",
        "eval-random/report.json": "2818b7b2a3a8cb521580c48073808d85aad4d9399c67b55654bc8e2454ae2845",
        "eval-random/resolved_config.json": "91e8db65e54ac782cf54dfa1a8dcbfafcdff4c77a8e558c50174064831fc84d6",
        "mine/hard_set.jsonl": "85b2bdbc6f9bb273736aab1f522935660010ccedf6440198ab3c4d03f7109188",
        "mine/mining_summary.json": "6a7344f59a465edea63067b6621f2d6bb878baeac02a9788238494c38f49b874",
        "mine/resolved_config.json": "eb7092bc1628dc2ee3ce73301cd48be8c93ab4c0f0bb635e53defc3f2b3871f3",
        "synth/resolved_config.json": "ca6687e2b6fa2164b488f527de0c104ce0a47632816cbbda5ba30a9b34fa1a83",
        "synth/reward_curve_seed0.tsv": "88afb376f1604e5b8c84182e87bc7da2e9f4f20d79bc93ee4c5cf1835162c564",
        "synth/reward_curve_seed1.tsv": "dbb27bf9155d48a2733dbd7962069cfbbbb7b3a49c9fc0e1b668757440248454",
        "synth/synth_results.json": "8d98fffd85e0573616157302a1965f6bea79d3d8f16714c51a7e5bdd5b26d39e",
        "train/checkpoint_final.json": "bac8fba1260db2e87edb4017742b4ab64ee7a2e9b84a9f03f8784213569de168",
        "train/resolved_config.json": "4366af655ffa3352515fc52474144b9b5402e075aec8b66c0703196aefe89525",
        "train/reward_curve.tsv": "bfbff25d941b15345ef1de7bc236ddf10fa310c2357562032978d64d77aad3f3",
        "train/usage.json": "427d5af21e9e8a6f305bb7f3de39d29773c74f2f504c8c7d2114f4b8dea57d44",
    }

    def test_every_artifact_has_its_pinned_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_dataset(self.RECORDS, "data.jsonl")
        write = functools.partial(write_config, Path("."))
        cfg = write(scripted_config(
            seed=2,
            trainer={"episodes": 10, "batch_size": 4, "buffer_capacity": 16, "widths": [6, 5]},
            env={"max_actions": 4},
        ))
        synth = write({"mdp_seed": 1, "sharpness": 0.6, "trainer": {"batch_size": 8, "buffer_capacity": 32}},
                      name="synth.json")
        runs = [
            ["mine-hard", "--config", cfg, "--dataset", "data.jsonl", "--out-dir", "mine"],
            ["train", "--config", cfg, "--hard-set", "mine/hard_set.jsonl", "--episodes", "12", "--out-dir", "train"],
            ["eval", "--config", cfg, "--dataset", "data.jsonl", "--policy", "nav",
             "--checkpoint", "train/checkpoint_final.json", "--trials", "2", "--out-dir", "eval-nav"],
            ["eval", "--config", cfg, "--dataset", "data.jsonl", "--policy", "random", "--out-dir", "eval-random"],
            ["eval", "--config", cfg, "--dataset", "data.jsonl", "--policy", "fixed-sequence", "--seed", "4",
             "--out-dir", "eval-fixed"],
            ["synth-train", "--config", synth, "--states", "4", "--episodes", "40", "--seeds", "1,0,",
             "--threshold", "0.0", "--out-dir", "synth"],
        ]
        for argv in runs:
            assert cli.main(argv) == cli.EXIT_OK, argv
        digests = {
            str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.glob("*/*"))
        }
        assert digests == self.DIGESTS
