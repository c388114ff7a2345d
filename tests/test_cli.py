import csv
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from trustfed import cli, harness, nn
from trustfed.data import Dataset
from trustfed.errors import ConfigError, DomainError, IntegrityError
from trustfed.harness import SimConfig


DESK_CFG = Path(__file__).resolve().parents[1] / "demos" / "desk_run.cfg"


def desk_config(tmp_path, **overrides):
    """The desk config with ``overrides`` in place of its own values."""
    kept = [line for line in DESK_CFG.read_text().splitlines()
            if line.split("=", 1)[0].strip() not in overrides]
    path = tmp_path / "desk.cfg"
    path.write_text("\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n")
    return path


def assert_refused_before_any_data(cfg, message, tmp_path, capsys, monkeypatch):
    """``trustfed run`` on ``cfg`` exits with the configuration error
    ``message`` before any data is built and leaves no output directory."""
    def no_data(*args):
        raise AssertionError("the data set-up ran")

    monkeypatch.setattr(harness, "_synthetic_data", no_data)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


# Configs that validate admits and run refuses before any data, by name: the
# overrides and the owner's exact message.
REFUSED_IN_RUN = {
    "n_verifiers": ({"n_verifiers": 0}, "verifier count must be positive"),
    "hidden_width": ({"hidden_width": 0}, "all dimensions must be positive"),
    "queue_size": ({"queue_size": 0, "verify_set_size": 0, "verify_subset_size": 0, "defense_enabled": "off"},
                   "queue capacity must be positive"),
    "n_features": ({"n_features": 3, "n_classes": 5, "trigger_coords": "0,1"},
                   "need n_features >= n_classes to place cluster means"),
    "test_size": ({"test_size": 0}, "n, n_classes and n_features must be positive"),
    "pool_factor": ({"pool_factor": 0.5}, "need at least 8000 samples, got 4000"),
}


FAST_CFG = """
n_clients = 12
queue_size = 4
verify_set_size = 4
n_verifiers = 3
verify_subset_size = 3
rounds = 2
per_client_size = 60
test_size = 200
warm_start_size = 400
warm_start_epochs = 20
attacker_ratio = 0.25
attack = blackbox
seed = 5
"""


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
        assert len(rows) == 3  # header + 2 rounds
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 2
        assert "final_ma" in capsys.readouterr().out or True

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9

    def test_csv_data_ingestion(self, tmp_path):
        from trustfed.data import gen_dataset
        ds = gen_dataset(1500, 3, 6, seed=1)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.column_stack([ds.x, ds.y]), delimiter=",")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n_clients = 6\nqueue_size = 3\nverify_set_size = 3\nn_verifiers = 2\n"
            "verify_subset_size = 2\nrounds = 2\nper_client_size = 50\n"
            "target_class = 0\ntrigger_coords = 1,2\nseed = 3\n"
        )
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--data", str(data_path)])
        assert code == 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("queue_size = 100\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("not_a_knob = 1\n")
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_attack_none_runs(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG.replace("attack = blackbox", "attack = none"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["attack"] == "none"

    def test_unknown_attack_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG.replace("attack = blackbox", "attack = trojan"))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "unknown attack 'trojan'" in capsys.readouterr().err

    def test_fully_dishonest_verifiers_need_full_compromise(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG + "bad_verifier_fraction = 1.0\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_key_set_twice_exits_with_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        text = FAST_CFG + "rounds = 5\n"
        cfg.write_text(text)
        message = f"{cfg}:{len(text.splitlines())}: key 'rounds' is set twice"
        with pytest.raises(ConfigError, match=re.escape(message)):
            SimConfig.from_file(cfg)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe\x00rounds = 2\n", "unknown key '\ufffd\ufffd\\x00rounds'"),
        (FAST_CFG.replace("attack = blackbox", "attack = blackbo\xff").encode("latin-1"),
         "unknown attack 'blackbo\ufffd'"),
    ], ids=["key", "value"])
    def test_config_not_in_utf8_exits_with_config_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_out_path_held_by_a_file_exits_with_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_IO
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("i/o error:")
        assert captured.out == "" and out.read_text() == "kept\n"

    # Calibration trains benign clients; with none, pgd needs an explicit delta.
    @pytest.mark.parametrize("attack", ["pgd", "pgd_mr"])
    def test_pgd_without_benign_clients_needs_a_delta(self, tmp_path, capsys, attack):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG.replace("attacker_ratio = 0.25", "attacker_ratio = 1")
                       .replace("attack = blackbox", f"attack = {attack}"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: cannot calibrate pgd_delta without benign clients\n")
        assert not out.exists()


class TestMalformedCsv:
    CFG = ("n_clients = 2\nqueue_size = 2\nverify_set_size = 2\nn_verifiers = 1\n"
           "verify_subset_size = 2\nrounds = 1\nper_client_size = 2\n")

    @pytest.mark.parametrize("text", [
        "f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n",   # header row
        "1.0,2.0,0\n3.0,abc,1\n",                 # non-numeric cell
        "1.0,2.0,0\n3.0,1\n",                     # ragged row
    ], ids=["header", "non-numeric", "ragged"])
    def test_exits_with_config_error(self, tmp_path, capsys, text):
        data_path = tmp_path / "data.csv"
        data_path.write_text(text)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(self.CFG)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--data", str(data_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: malformed CSV" in err and "Traceback" not in err

    # numpy warns before it returns no rows; under -W error that warning
    # must not escape as a traceback (exit 1).
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_no_rows_exits_with_config_error_under_warnings_as_errors(self, tmp_path, text):
        data_path = tmp_path / "data.csv"
        data_path.write_text(text)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(self.CFG)
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "trustfed.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "o"), "--data", str(data_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == cli.EXIT_CONFIG
        assert out.stderr.startswith("configuration error: malformed CSV")
        assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize("label", ["2.9999999", "-0.9999999", "inf", "1e20"])
    def test_inexact_label_exits_with_config_error(self, tmp_path, capsys, label):
        data_path = tmp_path / "data.csv"
        data_path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(self.CFG)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--data", str(data_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "label column must hold exact integers" in err and "Traceback" not in err

    def test_target_outside_the_csv_classes_exits_with_config_error(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        data_path.write_text("".join(f"{i}.0,{i}.5,{i % 2}\n" for i in range(10)))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(self.CFG + "target_class = 2\ntrigger_coords = 0\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--data", str(data_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: target_class out of range\n"


class TestFaultInjection:
    def test_diverging_clients_exit_with_numerical_error(self, tmp_path, capsys):
        cfg = desk_config(tmp_path, learning_rate=1e300, rounds=3, warm_start_epochs=2)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical error:")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_stops_at_its_first_overflow_without_warnings(self, tmp_path, capsys):
        cfg = desk_config(tmp_path, learning_rate=1e300, rounds=3, warm_start_epochs=2)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:")
        assert not out.exists()

    def test_caav_shortfall_is_logged_and_the_run_goes_on(self, tmp_path):
        cfg = desk_config(tmp_path, verifier_policy="caav", n_verifiers=40, attacker_ratio=0.25,
                          attack="blackbox", rounds=3)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        kinds = [json.loads(line)["kind"] for line in (out / "events.jsonl").read_text().splitlines()]
        assert "VerifierShortfall" in kinds
        assert kinds.count("GlobalUpdated") == 3

    # Any other TrustFedError (here the store's) exits 1 with one line.
    def test_other_package_error_exits_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        def corrupt_store(cfg):
            raise IntegrityError("stored bytes do not hash to 0123456789ab...")

        monkeypatch.setattr(cli, "run", corrupt_store)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: stored bytes do not hash to 0123456789ab...\n"
        assert captured.out == "" and not out.exists()


class TestConfigEdgeCases:
    @pytest.mark.parametrize("overrides", [
        {"verify_subset_size": 1},
        {"bad_verifier_fraction": 1.5},
        {"bad_verifier_fraction": -0.1},
        {"bad_verifier_mode": "mirror"},
        {"verifier_policy": "closed"},
        {"rounds": 0},
        {"verify_lag": -1},
        {"target_class": 5},
        {"trigger_coords": "1,2,20"},
        {"warm_start_size": -5},
        {"trigger_coords": "1,-2"},
    ])
    def test_rejected_by_validate_and_by_run(self, tmp_path, capsys, overrides):
        cfg = desk_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            SimConfig.from_file(cfg).validate()
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    @pytest.mark.parametrize("key, text", [
        ("rounds", "ten"),
        ("learning_rate", "abc"),
        ("n_clients", "40.5"),
        ("rounds", "2.7"),
        ("trigger_coords", "a,b"),
        ("seed", "1.5"),
        ("defense_enabled", "2"),
        ("rounds", ""),
        ("trigger_coords", ""),
        ("queue_size", "true"),
        ("learning_rate", "nan"),
    ])
    def test_wrongly_typed_value_exits_with_config_error(self, tmp_path, capsys, key, text):
        cfg = desk_config(tmp_path, **{key: text})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    # Each value's owner (nn.TrainConfig, data.PartitionSpec or data.PoisonSpec)
    # refuses it, and validate asks that owner before any data is built.
    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", -1, "learning_rate must be nonnegative"),
        ("local_epochs", 0, "local_epochs must be positive"),
        ("batch_size", 0, "batch_size must be positive"),
        ("per_client_size", 0, "n_clients and per_client_size must be positive"),
        ("poison_rate", 1.5, "pdr must lie in [0, 1]"),
        ("non_iid_degree", 1.5, "non_iid_degree must lie in [0, 1]"),
    ], ids=["learning_rate", "local_epochs", "batch_size", "per_client_size", "poison_rate",
            "non_iid_degree"])
    def test_owner_checks_run_before_any_data(self, tmp_path, capsys, monkeypatch, key, value, message):
        cfg = desk_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            SimConfig.from_file(cfg).validate()
        assert isinstance(info.value.__cause__, DomainError)
        assert_refused_before_any_data(cfg, message, tmp_path, capsys, monkeypatch)

    # from_file only parses; validate is the one type check, and its message is the CLI's.
    def test_from_file_parses_and_validate_refuses_the_type(self, tmp_path, capsys):
        path = desk_config(tmp_path, rounds="ten")
        cfg = SimConfig.from_file(path)
        assert cfg.rounds == "ten"
        with pytest.raises(ConfigError) as info:
            cfg.validate()
        assert str(info.value) == "rounds: 'ten' is not a valid int"
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {info.value}\n"

    # The warm start's nn.TrainConfig owns the epochs rule; validate asks it
    # before any data is built, whenever a warm start would run.
    def test_warm_start_epochs_are_checked_before_any_data(self, tmp_path, capsys, monkeypatch):
        cfg = desk_config(tmp_path, warm_start_epochs=0)
        message = "warm_start_epochs: the warm start's local_epochs must be positive"
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            SimConfig.from_file(cfg).validate()
        assert isinstance(info.value.__cause__, DomainError)
        assert_refused_before_any_data(cfg, message, tmp_path, capsys, monkeypatch)

    # nn.check_gradient_rate owns the positive rate verifiers divide by; validate
    # asks it before any data is built, after TrainConfig refuses a negative rate.
    def test_zero_learning_rate_is_checked_before_any_data(self, tmp_path, capsys, monkeypatch):
        cfg = desk_config(tmp_path, learning_rate=0, rounds=3, warm_start_epochs=2)
        message = "learning_rate must be positive to extract a gradient"
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            SimConfig.from_file(cfg).validate()
        assert isinstance(info.value.__cause__, DomainError)
        assert_refused_before_any_data(cfg, message, tmp_path, capsys, monkeypatch)

    # pgd calibration trains the benign clients, and whether there are any is
    # a config fact: validate refuses a run without one before any data.
    @pytest.mark.parametrize("attack", ["pgd", "pgd_mr"])
    def test_pgd_calibration_without_benign_clients_is_refused_before_any_data(
            self, tmp_path, capsys, monkeypatch, attack):
        SimConfig.from_file(desk_config(tmp_path, attacker_ratio=1, attack=attack, pgd_delta=0.5)).validate()
        cfg = desk_config(tmp_path, attacker_ratio=1, attack=attack)
        message = "cannot calibrate pgd_delta without benign clients"
        with pytest.raises(ConfigError) as info:
            SimConfig.from_file(cfg).validate()
        assert str(info.value) == message
        assert_refused_before_any_data(cfg, message, tmp_path, capsys, monkeypatch)

    # clients.check_delta owns the projection radius that pgd_project needs;
    # validate asks it before any data, not in round 1's first attacker round.
    @pytest.mark.parametrize("attack", ["pgd", "pgd_mr"])
    @pytest.mark.parametrize("delta", [0, -0.5])
    def test_pgd_delta_is_checked_before_any_data(self, tmp_path, capsys, monkeypatch, attack, delta):
        cfg = desk_config(tmp_path, attack=attack, pgd_delta=delta)
        message = "delta must be positive"
        with pytest.raises(ConfigError) as info:
            SimConfig.from_file(cfg).validate()
        assert str(info.value) == message and isinstance(info.value.__cause__, DomainError)
        assert_refused_before_any_data(cfg, message, tmp_path, capsys, monkeypatch)

    # With one class every test sample is of the target class, so backdoor
    # accuracy has nothing to trigger: run refuses it with eval_ba's message,
    # where it builds the triggered test set and before the warm start.
    def test_one_class_data_is_refused_before_the_warm_start(self, tmp_path, capsys, monkeypatch):
        cfg = desk_config(tmp_path, n_classes=1, target_class=0)
        SimConfig.from_file(cfg).validate()
        with pytest.raises(DomainError) as info:
            harness.eval_ba(nn.init_mlp(20, 4, 1, seed=0), Dataset(np.zeros((0, 20)), [], 1), 0)

        def no_warm_start(*args):
            raise AssertionError("the warm start ran")

        monkeypatch.setattr(harness, "_warm_start", no_warm_start)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {info.value}\n"
        assert not out.exists()

    def test_zero_warm_start_epochs_run_without_a_warm_start(self, tmp_path):
        cfg = desk_config(tmp_path, warm_start_size=0, warm_start_epochs=0, rounds=2)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

        from trustfed.data import gen_dataset
        ds = gen_dataset(600, 3, 6, seed=1)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.column_stack([ds.x, ds.y]), delimiter=",")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TestMalformedCsv.CFG + "warm_start_epochs = 0\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "csv_out"),
                         "--data", str(data_path)]) == 0

    # These pass validate and are refused only inside run, before any data,
    # each by its owner's data-free rule; the three tests below check each
    # refusal and its message.
    @pytest.mark.parametrize("name", list(REFUSED_IN_RUN))
    def test_refused_only_inside_run(self, tmp_path, name):
        SimConfig.from_file(desk_config(tmp_path, **REFUSED_IN_RUN[name][0])).validate()

    # ledger.check_verifier_count owns the rule select_verifiers applies in
    # every round; a defended run asks it before any data is built.
    def test_verifier_count_is_checked_before_any_data(self, tmp_path, capsys, monkeypatch):
        overrides, message = REFUSED_IN_RUN["n_verifiers"]
        assert_refused_before_any_data(desk_config(tmp_path, **overrides), message, tmp_path, capsys,
                                       monkeypatch)

    # The generator's shape rule (data.check_generator_shape) and the
    # partitioner's pool size rule (PartitionSpec.check_pool_size) are asked
    # for the pool and the test set before any data is built, with the
    # messages the data set-up gives.
    @pytest.mark.parametrize("name", ["test_size", "n_features", "pool_factor"])
    def test_data_shape_is_checked_before_any_data(self, tmp_path, capsys, monkeypatch, name):
        overrides, message = REFUSED_IN_RUN[name]
        assert_refused_before_any_data(desk_config(tmp_path, **overrides), message, tmp_path, capsys,
                                       monkeypatch)

    # nn.check_mlp_shape (init_mlp's rule, on synthetic data, whose config fixes
    # every dimension) and ledger.check_queue_capacity (ContractState's) are
    # asked before any data, with their owners' messages.
    @pytest.mark.parametrize("name", ["hidden_width", "queue_size"])
    def test_model_and_queue_are_checked_before_any_data(self, tmp_path, capsys, monkeypatch, name):
        overrides, message = REFUSED_IN_RUN[name]
        assert_refused_before_any_data(desk_config(tmp_path, **overrides), message, tmp_path, capsys,
                                       monkeypatch)

    def test_defense_off_parses_and_admits_single_client_subsets(self, tmp_path):
        cfg = SimConfig.from_file(desk_config(tmp_path, defense_enabled="off", verify_subset_size=1))
        assert cfg.defense_enabled is False
        assert cfg.validate() is cfg


class TestPlanCommand:
    def test_plan_verifier_count(self, capsys):
        assert cli.main(["plan", "--M", "10", "--L", "4", "--trials", "5000"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "monte carlo" in out

    def test_plan_subset_size_prints_note(self, capsys):
        assert cli.main(["plan", "--M", "6", "--V", "3", "--trials", "20000"]) == 0
        out = capsys.readouterr().out
        assert "NOTE" in out  # closed form sits one below the simulated mean

    def test_plan_requires_one_target(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["plan", "--M", "10"])

    def test_plan_rejects_bad_domain(self):
        assert cli.main(["plan", "--M", "4", "--L", "9"]) == cli.EXIT_CONFIG

    def test_plan_rejects_bad_counts_before_simulating(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert cli.main(["plan", "--M", "30", "--V", "0"]) == cli.EXIT_CONFIG
        assert cli.main(["plan", "--M", "30", "--V", "15", "--trials", "0"]) == cli.EXIT_CONFIG

    def test_plan_rejects_negative_seed_for_verifier_count(self, capsys):
        assert cli.main(["plan", "--M", "10", "--L", "4", "--seed", "-1"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: seed must be a nonnegative integer"]

    def test_plan_subset_size_accepts_negative_seed(self):
        assert cli.main(["plan", "--M", "10", "--V", "4", "--seed", "-1", "--trials", "200"]) == 0
